//! Work sharing inside one query: a batch of pure jobs offered to parked
//! helper threads, which the offering thread finishes without ever
//! waiting on them.
//!
//! The offering thread hands an [`Offer`] out, does other work, then
//! [`finish`](Offer::finish)es it: it runs every job no helper has
//! started and recomputes every job a helper started but has not
//! finished. A job is a pure function of its input, so whichever thread
//! computes it gives the same result, and the first one stored is kept.
//! A helper that is slow to wake, busy elsewhere or descheduled costs the
//! caller nothing but the help it did not give.
//!
//! Whether an offer wakes anyone is decided by a process-wide busy count:
//! every query holds a [`Busy`] for its lifetime, the process-wide
//! [`Helpers`] wake one helper per host thread no query holds, and a
//! helper claims each job only while that still holds. A batch as wide as
//! the host, and a one-thread host (where no helper is ever started),
//! therefore run every job on the query's own thread. Helpers run in the
//! idle scheduling class, so they never take a core another thread of the
//! process wants.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, Weak};
use std::thread::JoinHandle;

/// Stack of a helper thread: a job is an iterative search over heap
/// buffers, so a small fixed stack serves it.
const HELPER_STACK: usize = 256 * 1024;

/// Queries running in this process, each counted by the [`Busy`] it holds.
static BUSY: AtomicUsize = AtomicUsize::new(0);

/// One running query in the process-wide busy count, for as long as it
/// lives.
#[derive(Debug)]
pub struct Busy(());

impl Busy {
    /// Count the calling query as running until the guard drops.
    pub fn hold() -> Self {
        BUSY.fetch_add(1, Relaxed);
        Busy(())
    }
}

impl Drop for Busy {
    fn drop(&mut self) {
        BUSY.fetch_sub(1, Relaxed);
    }
}

/// A batch a helper can work on without knowing its types.
trait Task: Send + Sync {
    /// Claim and run jobs until none is left unclaimed, or until `go`
    /// says stop.
    fn help(&self, go: &dyn Fn() -> bool);
}

/// What the offering thread and its helpers share.
struct Queue {
    /// Offered batches, one entry per helper asked to work on it; held
    /// weakly so a finished batch is freed whoever still lists it.
    tasks: VecDeque<Weak<dyn Task>>,
    /// Set when the owning [`Helpers`] drops: helpers exit once idle.
    closed: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    wake: Condvar,
    /// The process-wide set's host threads: its helpers claim a job only
    /// while fewer queries hold a [`Busy`]. `None` for a set built with
    /// [`Helpers::new`], whose helpers take every job they reach.
    cores: Option<usize>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Host threads no query holds now (unbounded for an ungated set).
    fn spare(&self) -> usize {
        self.cores.map_or(usize::MAX, |cores| cores.saturating_sub(BUSY.load(Relaxed)))
    }
}

/// A set of parked helper threads, started on the first offer that asks
/// for one.
pub struct Helpers {
    threads: usize,
    started: OnceLock<Vec<JoinHandle<()>>>,
    shared: Arc<Shared>,
}

impl Helpers {
    /// A set of `threads` helpers, none started yet.
    pub fn new(threads: usize) -> Self {
        Self::with_gate(threads, None)
    }

    fn with_gate(threads: usize, cores: Option<usize>) -> Self {
        let queue = Mutex::new(Queue { tasks: VecDeque::new(), closed: false });
        let shared = Arc::new(Shared { queue, wake: Condvar::new(), cores });
        Self { threads, started: OnceLock::new(), shared }
    }

    /// The process-wide set: one helper per host thread beyond the first,
    /// each claiming jobs only while a host thread is not held by a query.
    pub fn global() -> &'static Helpers {
        static GLOBAL: OnceLock<Helpers> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cores = crate::available_threads();
            Helpers::with_gate(cores - 1, Some(cores))
        })
    }

    /// How many helpers the set holds (started or not).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Offer `jobs` to up to `wake` of these helpers (none when `wake` is
    /// 0: the caller then runs every job itself in
    /// [`finish`](Offer::finish)). `run` must be a pure function of its
    /// job; the scratch is a helper's own, kept across its batches.
    pub fn offer<J, R, S>(
        &self,
        jobs: Vec<J>,
        run: fn(&J, &mut S) -> R,
        wake: usize,
    ) -> Offer<J, R, S>
    where
        J: Send + Sync + 'static,
        R: Send + Sync + 'static,
        S: Default + 'static,
    {
        let slots = jobs.iter().map(|_| OnceLock::new()).collect();
        let batch = Arc::new(Batch { jobs, run, cursor: AtomicUsize::new(0), slots });
        let wake = wake.min(self.threads).min(batch.jobs.len());
        if wake > 0 {
            self.start();
            let task: Weak<dyn Task> = Arc::downgrade(&batch) as Weak<dyn Task>;
            let mut queue = self.shared.lock();
            queue.tasks.retain(|t| t.strong_count() > 0);
            queue.tasks.extend((0..wake).map(|_| task.clone()));
            drop(queue);
            for _ in 0..wake {
                self.shared.wake.notify_one();
            }
        }
        Offer { batch }
    }

    /// Offer `jobs` to the process-wide helpers that have a spare thread:
    /// one per host thread not taken by a running query ([`Busy`]).
    pub fn offer_spare<J, R, S>(jobs: Vec<J>, run: fn(&J, &mut S) -> R) -> Offer<J, R, S>
    where
        J: Send + Sync + 'static,
        R: Send + Sync + 'static,
        S: Default + 'static,
    {
        let helpers = Helpers::global();
        helpers.offer(jobs, run, helpers.shared.spare())
    }

    fn start(&self) {
        self.started.get_or_init(|| {
            (0..self.threads)
                .map(|i| {
                    let shared = Arc::clone(&self.shared);
                    std::thread::Builder::new()
                        .name(format!("sknn-helper-{i}"))
                        .stack_size(HELPER_STACK)
                        .spawn(move || serve(&shared))
                        .expect("spawn a helper thread")
                })
                .collect()
        });
    }
}

impl Drop for Helpers {
    /// Close the queue and join the helpers once they finish the job in
    /// hand. A helper catches its jobs' panics, so a join has none to
    /// report.
    fn drop(&mut self) {
        self.shared.lock().closed = true;
        self.shared.wake.notify_all();
        for helper in self.started.take().into_iter().flatten() {
            let _ = helper.join();
        }
    }
}

/// A helper's loop: take the next offered batch and help with it.
fn serve(shared: &Shared) {
    HELPER.set(true);
    idle_class();
    loop {
        let task = {
            let mut queue = shared.lock();
            loop {
                if let Some(task) = queue.tasks.pop_front() {
                    break task;
                }
                if queue.closed {
                    return;
                }
                queue = shared.wake.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        };
        if let Some(task) = task.upgrade() {
            // A query that started since the offer takes the core back.
            task.help(&|| shared.spare() > 0);
        }
    }
}

/// Put the calling thread in the idle scheduling class: it runs only on
/// a core no other thread of the process wants, so a helper never delays
/// a query's thread, a connection's reader or a client beside it. A host
/// that refuses leaves it in the normal class, where the busy count
/// alone keeps it off the queries' cores.
#[cfg(target_os = "linux")]
fn idle_class() {
    #[repr(C)]
    struct SchedParam {
        priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    // Pid 0 is the calling thread. Lowering one's own class needs no
    // privilege; an error leaves the class as it was.
    // SAFETY: the call only reads `param`, a live local of the C layout
    // `struct sched_param` (one `int`), for the duration of the call.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &SchedParam { priority: 0 }) };
}

#[cfg(not(target_os = "linux"))]
fn idle_class() {}

thread_local! {
    /// A helper's scratches, one per scratch type it has run jobs with.
    static SCRATCH: RefCell<Vec<Box<dyn Any>>> = const { RefCell::new(Vec::new()) };
    /// Set on a helper thread for its lifetime.
    static HELPER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is a helper of some [`Helpers`] set: a job
/// can time itself on a thread whose CPU time no query clock sees.
pub fn on_helper() -> bool {
    HELPER.get()
}

/// One offered batch: its jobs, a claim cursor and a result slot per job.
struct Batch<J, R, S> {
    jobs: Vec<J>,
    run: fn(&J, &mut S) -> R,
    cursor: AtomicUsize,
    /// Per job, the first result stored and whether a helper computed it.
    slots: Vec<OnceLock<(R, bool)>>,
}

impl<J, R, S> Batch<J, R, S> {
    /// The next job nobody has started, claimed for the calling thread.
    /// The cursor publishes no data: the jobs were shared before the
    /// batch was queued, and each result is published by its slot.
    fn claim(&self) -> Option<usize> {
        let i = self.cursor.fetch_add(1, Relaxed);
        (i < self.jobs.len()).then_some(i)
    }
}

impl<J, R, S> Task for Batch<J, R, S>
where
    J: Send + Sync,
    R: Send + Sync,
    S: Default + 'static,
{
    fn help(&self, go: &dyn Fn() -> bool) {
        let mut scratch: Box<S> = SCRATCH
            .with_borrow_mut(|all| {
                let at = all.iter().position(|s| s.is::<S>())?;
                all.swap_remove(at).downcast().ok()
            })
            .unwrap_or_default();
        while let Some(i) = go().then(|| self.claim()).flatten() {
            match catch_unwind(AssertUnwindSafe(|| (self.run)(&self.jobs[i], &mut scratch))) {
                Ok(r) => {
                    let _ = self.slots[i].set((r, true));
                }
                // The slot stays empty, so the caller recomputes the job
                // and the panic surfaces there; the scratch it left
                // mid-update goes.
                Err(_) => *scratch = S::default(),
            }
        }
        SCRATCH.with_borrow_mut(|all| all.push(scratch));
    }
}

/// An offered batch, finished by the thread that offered it.
pub struct Offer<J, R, S> {
    batch: Arc<Batch<J, R, S>>,
}

/// One job's result, as [`Offer::finish`] hands it out.
#[derive(Debug)]
pub struct Done<'a, R> {
    /// The result.
    pub value: &'a R,
    /// Whether a helper computed the kept result.
    pub helped: bool,
}

impl<J, R, S> Offer<J, R, S> {
    /// Finish the batch on the calling thread with its own `scratch`: run
    /// every job no helper has started, then recompute every job a helper
    /// started and has not finished — never waiting on a helper. Returns
    /// each job's result in job order.
    pub fn finish(&self, scratch: &mut S) -> impl Iterator<Item = Done<'_, R>> {
        let b = &*self.batch;
        while let Some(i) = b.claim() {
            let _ = b.slots[i].set(((b.run)(&b.jobs[i], scratch), false));
        }
        for (job, slot) in b.jobs.iter().zip(&b.slots) {
            if slot.get().is_none() {
                let _ = slot.set(((b.run)(job, scratch), false));
            }
        }
        b.slots.iter().map(|slot| {
            let (value, helped) = slot.get().expect("every job finished above");
            Done { value, helped: *helped }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
    use std::time::{Duration, Instant};

    /// A pure job with a scratch that counts its uses per thread.
    fn square(x: &u64, calls: &mut u64) -> u64 {
        *calls += 1;
        x * x
    }

    #[test]
    fn results_equal_the_sequential_map_whoever_runs_the_jobs() {
        let want: Vec<u64> = (0..64u64).map(|x| x * x).collect();
        for threads in [0, 1, 3] {
            let helpers = Helpers::new(threads);
            for _ in 0..50 {
                let offer = helpers.offer((0..64).collect(), square, threads);
                let got: Vec<u64> = offer.finish(&mut 0).map(|d| *d.value).collect();
                assert_eq!(got, want, "{threads} helpers");
            }
        }
    }

    #[test]
    fn an_offer_to_no_helper_starts_none_and_runs_every_job_on_the_caller() {
        let helpers = Helpers::new(2);
        let mut calls = 0;
        let offer = helpers.offer((0..10).collect(), square, 0);
        assert!(offer.finish(&mut calls).all(|d| !d.helped));
        assert_eq!(calls, 10);
        assert!(helpers.started.get().is_none(), "no helper was asked for, none started");
        let none = Helpers::new(0);
        let offer = none.offer((0..3).collect(), square, 5);
        assert_eq!(offer.finish(&mut 0).map(|d| *d.value).collect::<Vec<_>>(), [0, 1, 4]);
        assert!(none.started.get().is_none());
    }

    /// Spin until `flag` is set, or fail after ten seconds.
    fn await_flag(flag: &AtomicBool) {
        let start = Instant::now();
        while !flag.load(SeqCst) {
            assert!(start.elapsed() < Duration::from_secs(10), "flag never set");
            std::thread::yield_now();
        }
    }

    /// A helper held mid-job blocks nothing: the caller finishes a second
    /// batch the held helper never starts, then recomputes the held job
    /// itself. Released, the helper completes that job too, and its
    /// result is dropped: the caller's, stored first, is the one kept.
    #[test]
    fn a_held_or_unstarted_helper_never_blocks_the_caller() {
        static ENTERED: AtomicBool = AtomicBool::new(false);
        static RELEASED: AtomicBool = AtomicBool::new(false);
        fn held(x: &u64, _: &mut ()) -> u64 {
            if *x == 0 && on_helper() {
                ENTERED.store(true, SeqCst);
                await_flag(&RELEASED);
            }
            x + 10
        }
        let helpers = Helpers::new(1);
        let first = helpers.offer(vec![0u64, 1, 2], held, 1);
        await_flag(&ENTERED); // the only helper now holds job 0
        let second = helpers.offer(vec![5u64, 6], held, 1);
        let got: Vec<(u64, bool)> = second.finish(&mut ()).map(|d| (*d.value, d.helped)).collect();
        assert_eq!(got, [(15, false), (16, false)], "a batch no helper started");
        let got: Vec<(u64, bool)> = first.finish(&mut ()).map(|d| (*d.value, d.helped)).collect();
        assert_eq!(got, [(10, false), (11, false), (12, false)], "the held job recomputed");
        assert!(!RELEASED.load(SeqCst), "finished while the helper was still held");

        // Both threads complete job 0; the batch keeps one result.
        RELEASED.store(true, SeqCst);
        let start = Instant::now();
        while Arc::strong_count(&first.batch) > 1 {
            assert!(start.elapsed() < Duration::from_secs(10), "the helper never let go");
            std::thread::yield_now();
        }
        let again: Vec<(u64, bool)> = first.finish(&mut ()).map(|d| (*d.value, d.helped)).collect();
        assert_eq!(again, got);
    }

    /// Offer `jobs` to the set's one helper and let it run them all
    /// before the caller finishes: `mark` is set by a job on the helper,
    /// and the helper lets go of the batch after storing its results.
    fn helped<J, R, S>(
        helpers: &Helpers,
        jobs: Vec<J>,
        run: fn(&J, &mut S) -> R,
        mark: &AtomicBool,
    ) -> Offer<J, R, S>
    where
        J: Send + Sync + 'static,
        R: Send + Sync + 'static,
        S: Default + 'static,
    {
        mark.store(false, SeqCst);
        let offer = helpers.offer(jobs, run, 1);
        await_flag(mark);
        let start = Instant::now();
        while Arc::strong_count(&offer.batch) > 1 {
            assert!(start.elapsed() < Duration::from_secs(10), "the helper never let go");
            std::thread::yield_now();
        }
        offer
    }

    #[test]
    fn a_job_panicking_on_a_helper_panics_the_caller_with_its_payload() {
        static RAN: AtomicBool = AtomicBool::new(false);
        fn boom(x: &u64, _: &mut ()) -> u64 {
            if on_helper() {
                RAN.store(true, SeqCst);
            }
            if *x == 3 {
                std::panic::panic_any(format!("boom {x}"));
            }
            *x
        }
        let helpers = Helpers::new(1);
        // The helper runs job 3 first, panics, and leaves its slot empty.
        let offer = helped(&helpers, vec![3u64, 4], boom, &RAN);
        let err = catch_unwind(AssertUnwindSafe(|| offer.finish(&mut ()).count()))
            .expect_err("job 3 panics on the caller too");
        assert_eq!(err.downcast_ref::<String>().map(String::as_str), Some("boom 3"));
        // The helper survived the caught panic and still helps.
        let offer = helped(&helpers, vec![5u64], boom, &RAN);
        let got: Vec<(u64, bool)> = offer.finish(&mut ()).map(|d| (*d.value, d.helped)).collect();
        assert_eq!(got, [(5, true)]);
    }

    /// Each helper keeps its own scratch across batches: the helper's
    /// second batch finds the count its first one left, and the caller's
    /// scratch is not touched.
    #[test]
    fn a_helper_keeps_its_scratch_across_batches() {
        static RAN: AtomicBool = AtomicBool::new(false);
        fn count(_: &u64, calls: &mut u64) -> u64 {
            *calls += 1;
            if on_helper() {
                RAN.store(true, SeqCst);
            }
            *calls
        }
        let helpers = Helpers::new(1);
        let mut mine = 0;
        for want in [1, 2] {
            let offer = helped(&helpers, vec![0u64], count, &RAN);
            let got: Vec<(u64, bool)> =
                offer.finish(&mut mine).map(|d| (*d.value, d.helped)).collect();
            assert_eq!(got, [(want, true)]);
        }
        assert_eq!(mine, 0);
    }

    #[test]
    fn the_process_wide_set_leaves_one_thread_to_the_caller() {
        assert_eq!(Helpers::global().threads(), crate::available_threads() - 1);
        let _busy = Busy::hold();
        let offer = Helpers::offer_spare((0..16).collect(), square);
        let got: Vec<u64> = offer.finish(&mut 0).map(|d| *d.value).collect();
        assert_eq!(got, (0..16u64).map(|x| x * x).collect::<Vec<_>>());
    }
}
