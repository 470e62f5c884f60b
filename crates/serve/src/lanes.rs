//! Deadline-aware admission lanes: the bounded queue between the
//! [`edge`](crate::edge)'s connection readers and its workers, which
//! hand each popped job to the process — a shard
//! [`Server`](crate::Server)'s engine call, the `sknn-shard` router's
//! orchestration. One queue of [`Job`]s, generic over the payload.
//!
//! Scheduling is earliest-deadline-first with a starvation floor:
//!
//! * a job with an absolute deadline is dispatched before every job with
//!   a later (or no) deadline — the request with the least slack gets
//!   the engine first, which is what turns per-request deadlines from a
//!   drop policy into an actual scheduling policy;
//! * deadline-less jobs keep FIFO order among themselves and yield to
//!   any deadlined job — *unless* the oldest queued job (deadlined or
//!   not) has waited longer than the floor, in which case it is taken
//!   next regardless. The floor bounds how long a stream of urgent
//!   arrivals can park a patient request, so EDF cannot starve.

use crate::edge::Job;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Why a push was refused (and the job dropped): the caller answers the
/// request with the matching typed error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; shed the job (`Overloaded`).
    Full,
    /// The lanes are closed (server draining); reject (`ShuttingDown`).
    Closed,
}

struct Inner<P> {
    jobs: Vec<Job<P>>,
    closed: bool,
}

/// The shared admission queue. Producers (`try_push`) are the edge's
/// per-connection readers; consumers — the edge's workers — pop
/// the scheduled-next job.
pub struct Lanes<P> {
    inner: Mutex<Inner<P>>,
    cond: Condvar,
    capacity: usize,
    floor: Duration,
}

impl<P> Lanes<P> {
    /// An empty queue bounded at `capacity` with the given starvation
    /// floor (a zero floor disables the floor — pure EDF).
    pub(crate) fn new(capacity: usize, floor: Duration) -> Self {
        Self {
            inner: Mutex::new(Inner { jobs: Vec::new(), closed: false }),
            cond: Condvar::new(),
            capacity: capacity.max(1),
            floor,
        }
    }

    /// Offers a job; never blocks.
    pub(crate) fn try_push(&self, job: Job<P>) -> Result<(), PushError> {
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if g.closed {
            return Err(PushError::Closed);
        }
        if g.jobs.len() >= self.capacity {
            return Err(PushError::Full);
        }
        g.jobs.push(job);
        drop(g);
        self.cond.notify_one();
        Ok(())
    }

    /// Jobs queued right now — the one source of every `queue_depth`
    /// reading (gauge, `STATS` key).
    #[allow(clippy::len_without_is_empty)]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).jobs.len()
    }

    /// Closes the lanes: future pushes fail with [`PushError::Closed`],
    /// queued jobs keep draining, and poppers see `None` once empty.
    pub(crate) fn close(&self) {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.cond.notify_all();
    }

    /// Blocking pop: the scheduled-next job, or `None` once the lanes
    /// are closed and empty (the consumer's exit condition).
    pub(crate) fn pop(&self) -> Option<Job<P>> {
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(i) = self.pick(&g.jobs) {
                return Some(g.jobs.remove(i));
            }
            if g.closed {
                return None;
            }
            g = self.cond.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// The scheduling rule. Returns the index to dispatch next.
    fn pick(&self, jobs: &[Job<P>]) -> Option<usize> {
        // Starvation floor: once the oldest arrival has waited past the
        // floor, it goes next no matter what deadlines are queued.
        let (oldest, job) = jobs.iter().enumerate().min_by_key(|(_, j)| j.enqueued)?;
        if !self.floor.is_zero() && job.enqueued.elapsed() >= self.floor {
            return Some(oldest);
        }
        // EDF: earliest absolute deadline first; deadline-less jobs sort
        // after every deadlined one and FIFO among themselves. `min_by`
        // keeps the first of equals, so equal deadlines are FIFO too.
        jobs.iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| match (a.deadline, b.deadline) {
                (Some(x), Some(y)) => x.cmp(&y),
                (Some(_), None) => std::cmp::Ordering::Less,
                (None, Some(_)) => std::cmp::Ordering::Greater,
                (None, None) => a.enqueued.cmp(&b.enqueued),
            })
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// The scheduling contract: EDF order, FIFO among the deadline-less,
    /// the starvation floor beating EDF, shedding at capacity, and the
    /// closed-and-empty exit.
    #[test]
    fn lanes_obey_the_scheduling_contract() {
        let job =
            |req_id, deadline, enqueued| Job::detached(req_id, req_id + 1000, deadline, enqueued);
        let req = |j: Option<Job<()>>| j.expect("a job is queued").req_id;
        let t0 = Instant::now();
        let secs = |s| Some(t0 + Duration::from_secs(s));

        // EDF orders by deadline, not arrival; no deadline sorts last.
        let lanes = Lanes::new(8, Duration::from_secs(60));
        for (id, deadline) in [(1, secs(30)), (2, None), (3, secs(1)), (4, secs(10))] {
            assert!(lanes.try_push(job(id, deadline, t0)).is_ok());
        }
        let order: Vec<u64> = (0..4).map(|_| req(lanes.pop())).collect();
        assert_eq!(order, [3, 4, 1, 2]);

        // Deadline-less jobs stay FIFO among themselves.
        for i in 0..4 {
            assert!(lanes.try_push(job(i, None, t0 + Duration::from_micros(i))).is_ok());
        }
        let order: Vec<u64> = (0..4).map(|_| req(lanes.pop())).collect();
        assert_eq!(order, [0, 1, 2, 3]);

        // The starvation floor overrides EDF: alone, EDF would pick the only
        // deadlined job (2); the floor forces the starved 1 first.
        let lanes = Lanes::new(8, Duration::from_millis(1));
        let old = Instant::now() - Duration::from_millis(50);
        assert!(lanes.try_push(job(1, None, old)).is_ok());
        assert!(lanes.try_push(job(2, Some(Instant::now()), Instant::now())).is_ok());
        assert_eq!((req(lanes.pop()), req(lanes.pop())), (1, 2));

        // A full queue sheds.
        let lanes = Lanes::new(2, Duration::ZERO);
        assert!(lanes.try_push(job(1, None, t0)).is_ok());
        assert!(lanes.try_push(job(2, None, t0)).is_ok());
        assert_eq!(lanes.try_push(job(3, None, t0)), Err(PushError::Full));

        // Closing refuses pushes, drains what is queued, then ends.
        lanes.close();
        assert_eq!(lanes.try_push(job(4, None, t0)), Err(PushError::Closed));
        assert_eq!((req(lanes.pop()), req(lanes.pop())), (1, 2));
        assert!(lanes.pop().is_none());
    }
}
