//! The admission queue: the bounded FIFO between the
//! [`edge`](crate::edge)'s connection readers and its workers, which
//! hand each popped job to the process — a shard
//! [`Server`](crate::Server)'s engine call, the `sknn-shard` router's
//! orchestration. One queue of [`Job`]s, generic over the payload.
//!
//! Jobs leave in arrival order whatever their deadlines: a deadline
//! decides when the edge's worker refuses a job at dequeue, never where
//! it queues. Deadline order won no overload row and lost where
//! deadlines differ (EXPERIMENTS "What admission buys").

use crate::edge::Job;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

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
    jobs: VecDeque<Job<P>>,
    closed: bool,
}

/// The shared admission queue. Producers (`try_push`) are the edge's
/// per-connection readers; consumers — the edge's workers — pop the
/// oldest job.
pub struct Lanes<P> {
    inner: Mutex<Inner<P>>,
    cond: Condvar,
    capacity: usize,
}

impl<P> Lanes<P> {
    /// An empty queue bounded at `capacity`.
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner { jobs: VecDeque::new(), closed: false }),
            cond: Condvar::new(),
            capacity: capacity.max(1),
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
        g.jobs.push_back(job);
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

    /// Blocking pop: the oldest job, or `None` once the lanes are closed
    /// and empty (the consumer's exit condition).
    pub(crate) fn pop(&self) -> Option<Job<P>> {
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = g.jobs.pop_front() {
                return Some(job);
            }
            if g.closed {
                return None;
            }
            g = self.cond.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// The scheduling contract: arrival order whatever the deadlines,
    /// shedding at capacity, and the closed-and-empty exit.
    #[test]
    fn lanes_obey_the_scheduling_contract() {
        let job = |req_id, deadline| Job::detached(req_id, req_id + 1000, deadline, Instant::now());
        let req = |j: Option<Job<()>>| j.expect("a job is queued").req_id;
        let secs = |s| Some(Instant::now() + Duration::from_secs(s));

        // Arrival order, not deadline order; no deadline is no exception.
        let lanes = Lanes::new(8);
        for (id, deadline) in [(1, secs(30)), (2, None), (3, secs(1)), (4, secs(10))] {
            assert!(lanes.try_push(job(id, deadline)).is_ok());
        }
        let order: Vec<u64> = (0..4).map(|_| req(lanes.pop())).collect();
        assert_eq!(order, [1, 2, 3, 4]);

        // A full queue sheds.
        let lanes = Lanes::new(2);
        assert!(lanes.try_push(job(1, None)).is_ok());
        assert!(lanes.try_push(job(2, None)).is_ok());
        assert_eq!(lanes.try_push(job(3, None)), Err(PushError::Full));

        // Closing refuses pushes, drains what is queued, then ends.
        lanes.close();
        assert_eq!(lanes.try_push(job(4, None)), Err(PushError::Closed));
        assert_eq!((req(lanes.pop()), req(lanes.pop())), (1, 2));
        assert!(lanes.pop().is_none());
    }
}
