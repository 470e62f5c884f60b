//! Always-on tail capture: a bounded ring of the slowest / most
//! interesting requests, kept in memory and dumped as JSONL on demand
//! (the `TRACE_DUMP` protocol frame) and at drain.
//!
//! A request is captured when its end-to-end server latency exceeds the
//! configured threshold, or unconditionally when it ended degraded,
//! expired, or errored — the tail is precisely the population you want
//! post-hoc, and at a bounded capacity the cost of keeping it is a mutex
//! and a few hundred small structs, cheap enough to leave on in
//! production.

use crate::protocol::ServerTiming;
use sknn_obs::JsonWriter;
use std::collections::VecDeque;
use std::sync::Mutex;

/// How a captured request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlowOutcome {
    /// Completed successfully (captured because it was slow).
    Ok,
    /// Completed with a degradation marker.
    Degraded,
    /// Dropped at dequeue: half the deadline spent queued.
    Expired,
    /// The engine returned a typed error.
    Error,
}

impl SlowOutcome {
    fn as_str(self) -> &'static str {
        match self {
            SlowOutcome::Ok => "ok",
            SlowOutcome::Degraded => "degraded",
            SlowOutcome::Expired => "expired",
            SlowOutcome::Error => "error",
        }
    }
}

/// One captured request.
#[derive(Debug, Clone)]
pub struct SlowEntry {
    /// The request's trace id (client-supplied or server-minted).
    pub trace_id: u64,
    /// The client's correlation id.
    pub req_id: u64,
    /// End-to-end server-side latency, microseconds.
    pub total_us: u64,
    /// Per-stage breakdown (zeroed stages for expired requests, which
    /// never reached the engine).
    pub timing: ServerTiming,
    /// How the request ended.
    pub outcome: SlowOutcome,
}

impl SlowEntry {
    /// One JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.key("trace_id").u64(self.trace_id);
        w.key("req_id").u64(self.req_id);
        w.key("total_us").u64(self.total_us);
        w.key("outcome").str(self.outcome.as_str());
        w.key("queue_us").u64(self.timing.queue_us as u64);
        w.key("linger_us").u64(self.timing.linger_us as u64);
        w.key("exec_us").u64(self.timing.exec_us as u64);
        w.key("knn2d_us").u64(self.timing.knn2d_us as u64);
        w.key("radius_us").u64(self.timing.radius_us as u64);
        w.key("range_us").u64(self.timing.range_us as u64);
        w.key("rank_us").u64(self.timing.rank_us as u64);
        w.key("stall_us").u64(self.timing.stall_us as u64);
        w.key("batch").u64(self.timing.batch as u64);
        w.finish()
    }
}

/// Bounded reservoir of slow-query entries, oldest evicted first.
#[derive(Debug)]
pub struct SlowQueryLog {
    threshold_us: u64,
    capacity: usize,
    inner: Mutex<Reservoir>,
}

#[derive(Debug, Default)]
struct Reservoir {
    entries: VecDeque<SlowEntry>,
    /// Entries evicted to make room (the dump reports it so "ring was
    /// full" is visible in the artifact itself).
    evicted: u64,
}

impl SlowQueryLog {
    /// A log capturing requests slower than `threshold_us` (0 captures
    /// everything), holding at most `capacity` entries.
    pub fn new(threshold_us: u64, capacity: usize) -> Self {
        Self { threshold_us, capacity: capacity.max(1), inner: Mutex::new(Reservoir::default()) }
    }

    /// The capture threshold, microseconds.
    pub fn threshold_us(&self) -> u64 {
        self.threshold_us
    }

    /// Whether this request should be captured; callers gate on this to
    /// avoid building entries that would be discarded.
    pub fn wants(&self, total_us: u64, outcome: SlowOutcome) -> bool {
        outcome != SlowOutcome::Ok || total_us >= self.threshold_us
    }

    /// Records one entry (unconditionally; see [`wants`](Self::wants)).
    pub fn push(&self, entry: SlowEntry) {
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if g.entries.len() == self.capacity {
            g.entries.pop_front();
            g.evicted += 1;
        }
        g.entries.push_back(entry);
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).entries.len()
    }

    /// Whether the reservoir is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the reservoir as JSONL, slowest first, one object per
    /// line (with a final newline when non-empty). A header line carries
    /// the eviction count when any entry was displaced. The reservoir is
    /// left intact — dumps are a read, not a drain.
    pub fn to_jsonl(&self) -> String {
        let g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut sorted: Vec<&SlowEntry> = g.entries.iter().collect();
        sorted.sort_by_key(|e| std::cmp::Reverse(e.total_us));
        let mut out = String::new();
        if g.evicted > 0 {
            let mut w = JsonWriter::new();
            w.key("evicted").u64(g.evicted);
            out.push_str(&w.finish());
            out.push('\n');
        }
        for e in sorted {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(trace_id: u64, total_us: u64) -> SlowEntry {
        SlowEntry {
            trace_id,
            req_id: trace_id,
            total_us,
            timing: ServerTiming::default(),
            outcome: SlowOutcome::Ok,
        }
    }

    #[test]
    fn threshold_gates_ok_but_not_failures() {
        let log = SlowQueryLog::new(1000, 8);
        assert!(!log.wants(10, SlowOutcome::Ok));
        assert!(log.wants(1000, SlowOutcome::Ok));
        assert!(log.wants(10, SlowOutcome::Expired));
        assert!(log.wants(10, SlowOutcome::Degraded));
        assert!(log.wants(10, SlowOutcome::Error));
    }

    #[test]
    fn bounded_eviction_and_sorted_dump() {
        let log = SlowQueryLog::new(0, 3);
        for (id, us) in [(1u64, 50u64), (2, 300), (3, 100), (4, 200)] {
            log.push(entry(id, us));
        }
        assert_eq!(log.len(), 3);
        let dump = log.to_jsonl();
        for line in dump.lines() {
            sknn_obs::json::validate(line).expect("each line is valid JSON");
        }
        let mut lines = dump.lines();
        assert!(lines.next().unwrap().contains("\"evicted\":1"));
        let order: Vec<bool> = lines.map(|l| l.contains("\"outcome\":\"ok\"")).collect();
        assert_eq!(order.len(), 3);
        // Slowest first: 300, 200, 100 (entry 1 evicted).
        assert!(dump.find("\"total_us\":300") < dump.find("\"total_us\":200"));
        assert!(dump.find("\"total_us\":200") < dump.find("\"total_us\":100"));
        assert!(!dump.contains("\"total_us\":50"));
    }
}
