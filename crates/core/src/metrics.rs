//! Query cost accounting.
//!
//! The paper reports three metrics per experiment: total response time,
//! CPU time, and disk pages accessed. We measure CPU time directly and
//! derive I/O time from the physical page-read count and a per-read cost,
//! so `total = cpu + io` decomposes exactly as in the paper's figures.

use crate::bounds::DistRange;
use std::time::Duration;

/// Wall-clock time spent in each MR3 step of one query, in microseconds.
///
/// Measured unconditionally (a few `Instant::now()` reads per ranking
/// group — noise next to a Dijkstra pass), so the serving layer can report
/// per-stage latency even with tracing off. The first four fields mirror
/// the four step spans of the trace (`step1_knn2d` … `step4_rank`); the
/// `rank_*` fields split the two ranking steps (2 and 4) by phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Step 1: 2D k-NN seeding on the projection R-tree.
    pub knn2d_us: u64,
    /// Step 2: ranking the seeds to bound the k-th neighbour's distance.
    pub radius_us: u64,
    /// Step 3: planar range query with the safe radius.
    pub range_us: u64,
    /// Step 4: iterative multi-resolution ranking of the candidate set.
    pub rank_us: u64,
    /// Inside steps 2 + 4: cut materialisation, wall time — every
    /// iteration's planned batch (DMTM units, MSDN lines, the look-ahead's
    /// keys and the pathnet's leaf-unit charge, stall included) and each
    /// group's front derivation with its CSR build. Equal, up to one
    /// microsecond of truncation per iteration, to the three `fetch_*`
    /// clocks plus the query's pager stall.
    pub rank_fetch_us: u64,
    /// Inside `rank_fetch_us`: the claims, the plan around them and the
    /// pager's own work in the batched read (window, copy, checksum) — the
    /// batch less its loads' decode and its stall. The stall subtracted is
    /// the nominal `read_stall` the pager charges; the sleep's overshoot
    /// past it (≈ 90 µs per stalled batch on a 2-vCPU VM) lands here.
    pub fetch_read_us: u64,
    /// Inside `rank_fetch_us`: the unit and line loads' decode — their
    /// page feeds (the line record walk, the unit word copy), `publish`
    /// (the cache insert) and `finish` (hand-out, and waits on keys other
    /// threads lead). Zero for a query whose keys are all resident.
    pub fetch_decode_us: u64,
    /// Inside `rank_fetch_us`: `FrontGraph::derive` and the front's CSR
    /// build.
    pub fetch_derive_us: u64,
    /// Inside steps 2 + 4: upper bounds over derived fronts (embedding and
    /// Dijkstra runs; the CSR build is `fetch_derive_us`).
    pub rank_ub_us: u64,
    /// Inside steps 2 + 4: lower bounds over fetched lines (slicing,
    /// network build, Dijkstra runs), summed over the lower-bound jobs on
    /// whichever thread ran each. A job a helper ran overlaps the query's
    /// own upper-bound and fetch time, so this may overlap `rank_ub_us`
    /// and `rank_fetch_us`, and the `rank_*` phases may sum past the
    /// steps' wall time.
    pub rank_lb_us: u64,
    /// Inside steps 2 + 4: the pathnet level's runs — per group, the
    /// region's net searched in place, aimed at the members, and the
    /// members' read-offs. No graph is built.
    pub rank_pathnet_us: u64,
}

impl StageTimes {
    /// Sum of the four step times (≤ the query's wall time: steps exclude
    /// setup, result assembly, and trace drain). The `rank_*` phases are
    /// parts of steps 2 and 4, not additional stages.
    pub fn total_us(&self) -> u64 {
        self.knn2d_us + self.radius_us + self.range_us + self.rank_us
    }
}

/// Cost counters of one query.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryStats {
    /// Measured CPU time (see [`CpuTimer`] for exactly what is measured):
    /// the query's thread, plus each lower-bound job whose result a
    /// helper thread computed, timed on that helper.
    pub cpu: Duration,
    /// Measured wall-clock time of the query, including real pager stalls
    /// and scheduling delays — the per-query latency that batch execution
    /// aggregates into percentiles.
    pub wall: Duration,
    /// Physical disk pages read (each page once per query + index node
    /// visits).
    pub pages: u64,
    /// Resolution iterations executed by the ranking engine.
    pub iterations: usize,
    /// Candidates examined in step 4.
    pub candidates: usize,
    /// Dijkstra nodes settled across all bound estimations (CPU proxy).
    pub settled: usize,
    /// Priority-queue pushes across all Dijkstra runs of the query.
    pub queue_pushes: u64,
    /// Priority-queue pops (stale or not) across all Dijkstra runs.
    pub queue_pops: u64,
    /// Pops discarded as stale (lazy deletion) — the gap between pops and
    /// settles that the bucketed queue is designed to keep cheap.
    pub stale_pops: u64,
    /// Upper-bound estimations performed.
    pub ub_estimations: usize,
    /// Lower-bound estimations performed (full, not dummy).
    pub lb_estimations: usize,
    /// Dummy (corridor) lower bounds that sufficed without confirmation.
    pub dummy_lb_hits: usize,
    /// Lower-bound jobs (one per member per ranking iteration with a
    /// lower-bound phase) whose result a helper thread computed while the
    /// query's thread ran the upper bounds.
    pub lb_jobs_shared: usize,
    /// Front-graph fetches answered by the per-query front cache instead
    /// of re-extracting (and re-paging) the DMTM front.
    pub front_cache_hits: usize,
    /// Groups over the whole terrain that the per-query front cache did
    /// not serve: each was served by a whole-terrain front
    /// ([`shared_fronts`](Self::shared_fronts)) or derived and published
    /// it.
    pub whole_fronts: usize,
    /// Groups the per-query front cache did not serve that a view of a
    /// whole-terrain front at their step served — the engine's table's, or
    /// the one the query holds — masked to the group's region: no units
    /// claimed, nothing derived.
    pub shared_fronts: usize,
    /// Fronts the query derived from units itself: a group's own region,
    /// or the whole lattice when the engine's table lacked the step and
    /// every unit of it was resident.
    pub derived_fronts: usize,
    /// Cut fetches (DMTM fronts + MSDN line bands) served by the shared
    /// process-wide cut cache without running an extraction.
    pub cut_cache_hits: usize,
    /// Cut fetches this query led an extraction for (shared-cache misses).
    pub cut_cache_misses: usize,
    /// Pages a stalling iteration's batch read only because its look-ahead
    /// asked for them: later schedule steps' units and lines over the
    /// iteration's own groups, and a radius iteration's lines for the
    /// ranking run after it (over the step-3 disc).
    pub ahead_pages: u64,
    /// Later schedule steps of their own run the look-aheads carried,
    /// summed over the query's batches: one per batch while a region is
    /// unbounded, the rest of the schedule once every region is bounded.
    /// The lines a radius batch carries for the ranking run are not steps
    /// of its run and count none.
    pub ahead_steps: usize,
    /// Per-step wall-clock breakdown (always measured, tracing or not).
    pub stages: StageTimes,
}

impl QueryStats {
    /// Accumulate one Dijkstra run's queue-operation counters.
    pub fn absorb_queue(&mut self, q: &sknn_geodesic::graph::QueueCounters) {
        self.queue_pushes += q.pushes;
        self.queue_pops += q.pops;
        self.stale_pops += q.stale_pops;
    }

    /// Computed I/O time when every page read costs `per_read`.
    pub fn io_time(&self, per_read: Duration) -> Duration {
        per_read.mul_f64(self.pages as f64)
    }

    /// Total response time when every page read costs `per_read`.
    pub fn total_time(&self, per_read: Duration) -> Duration {
        self.cpu + self.io_time(per_read)
    }
}

/// A scoped CPU timer accumulating into a `Duration`.
///
/// On Linux this reads `CLOCK_THREAD_CPUTIME_ID`, i.e. genuine per-thread
/// CPU time: time the querying thread spends descheduled or blocked does
/// not count, which is what makes `total = cpu + io` a sound decomposition
/// when the I/O term comes from a disk model rather than real waits. On
/// other platforms it falls back to a monotonic wall clock, which
/// over-reports CPU under contention.
pub struct CpuTimer {
    start: Duration,
}

impl CpuTimer {
    /// Start.
    pub fn start() -> Self {
        Self { start: thread_cpu_now() }
    }

    /// Stop into.
    pub fn stop_into(self, acc: &mut Duration) {
        *acc += thread_cpu_now().saturating_sub(self.start);
    }
}

/// Current per-thread CPU clock reading (an arbitrary-epoch instant, only
/// differences are meaningful).
#[cfg(target_os = "linux")]
fn thread_cpu_now() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    // Stable Linux syscall ABI (clock id 3 = CLOCK_THREAD_CPUTIME_ID),
    // bound directly so no libc crate dependency is needed.
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        Duration::new(ts.tv_sec.max(0) as u64, ts.tv_nsec.clamp(0, 999_999_999) as u32)
    } else {
        Duration::ZERO
    }
}

#[cfg(not(target_os = "linux"))]
fn thread_cpu_now() -> Duration {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed()
}

/// One returned neighbour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Object id within the scene.
    pub id: u32,
    /// Bracketing range of its surface distance from the query point.
    pub range: DistRange,
}

/// Result of an sk-NN query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The k nearest objects, ascending by distance estimate.
    pub neighbors: Vec<Neighbor>,
    /// Cost counters of the query.
    pub stats: QueryStats,
    /// Structured trace of the query's execution, present when the engine
    /// has tracing enabled (see `Mr3Engine::enable_tracing`).
    pub trace: Option<sknn_obs::QueryTrace>,
    /// Set when storage faults were absorbed along the way: the bounds are
    /// still valid, but looser than the schedule would normally deliver.
    pub degraded: Option<crate::resilience::Degraded>,
    /// The MR3 step-2 search radius the answer was computed under (the
    /// 2D range that provably contains every possible top-k member) —
    /// what a sharding router uses to decide whether the query's search
    /// region stayed inside one tile. `0.0` for `k == 0` and for
    /// algorithms without a radius stage; may be `+inf` when estimation
    /// degenerated and the engine ranked every live object.
    pub radius: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_decomposition() {
        let stats =
            QueryStats { cpu: Duration::from_millis(100), pages: 500, ..Default::default() };
        let per_read = Duration::from_millis(8);
        assert_eq!(stats.io_time(per_read), Duration::from_secs(4));
        assert_eq!(stats.total_time(per_read), Duration::from_millis(4100));
    }

    #[test]
    fn timer_accumulates() {
        let mut acc = Duration::ZERO;
        let t = CpuTimer::start();
        std::hint::black_box((0..10_000_000u64).sum::<u64>());
        t.stop_into(&mut acc);
        assert!(acc > Duration::ZERO);
        let before = acc;
        let t = CpuTimer::start();
        std::hint::black_box((0..10_000_000u64).sum::<u64>());
        t.stop_into(&mut acc);
        assert!(acc > before);
    }

    /// The point of the thread-CPU clock: blocked time is not CPU time.
    #[cfg(target_os = "linux")]
    #[test]
    fn sleeping_costs_no_cpu_time() {
        let mut acc = Duration::ZERO;
        let t = CpuTimer::start();
        std::thread::sleep(Duration::from_millis(60));
        t.stop_into(&mut acc);
        assert!(acc < Duration::from_millis(20), "60 ms sleep billed {acc:?} of CPU");
    }
}
