//! Engine ops: one [`JobOp`] → one engine call → one reply frame. The
//! edge's workers hand a shard [`Server`] its jobs one at a time
//! ([`Service::serve`](crate::edge::Service::serve)); nothing a query
//! computes is shared with the queries running beside it, so nothing
//! waits for them either — what concurrent queries do share (the cut
//! cache, the pager's buffer pool) they share inside the engine,
//! whoever runs next to whom.
//!
//! Each job carries two clocks from the same monotonic source, `enqueued`
//! (admission) and `recv_at` (worker pickup), and its engine call is
//! timed here. The stage decomposition a response reports is therefore a
//! partition of real wall time: queue (enqueued→recv) + exec (the engine
//! call, itself split into the four MR3 steps) ≤ end-to-end latency.

use crate::edge::Job;
use crate::protocol::{
    ErrorCode, Frame, RangeFrame, ResponseFrame, SeedsFrame, ServerTiming, WireNeighbor, WireObject,
};
use crate::server::Server;
use crate::slowlog::{SlowEntry, SlowOutcome};
use sknn_core::metrics::QueryResult;
use sknn_core::mr3::QueryOpts;
use sknn_core::resilience::QueryError;
use sknn_core::workload::SurfacePoint;
use sknn_geom::{Point2, Rect2};
use sknn_obs::{field, Recorder};
use std::time::{Duration, Instant};

/// What an admitted request asks the engine for. `Query` is the whole
/// MR3 pipeline; the rest are the decomposed shard ops (a router
/// reconstructing one query across a fleet). All ops flow through the
/// same lanes and workers and obey the same deadline.
pub enum JobOp {
    /// Full k-NN query (steps 1–4), stopped after step 2 when its circle
    /// leaves `within` ([`QueryOpts::within`]).
    Query { point: SurfacePoint, k: usize, within: Rect2 },
    /// Step 1 only: local 2D seeds.
    Seeds { xy: Point2, k: usize },
    /// Step 3 only: local 2D range collection.
    Range { xy: Point2, radius: f64 },
    /// Steps 2+4 with explicit merged lists (home-shard coupled ranking;
    /// over no candidates, the step-2 radius alone).
    Exec {
        point: SurfacePoint,
        k: usize,
        seeds: Vec<(u32, SurfacePoint)>,
        cands: Vec<(u32, SurfacePoint)>,
    },
}

fn wire_object(id: u32, p: &SurfacePoint) -> WireObject {
    WireObject { id, tri: p.tri, x: p.pos.x, y: p.pos.y, z: p.pos.z }
}

fn micros_u64(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

fn micros_u32(d: Duration) -> u32 {
    d.as_micros().min(u32::MAX as u128) as u32
}

fn queue_us(job: &Job<JobOp>) -> u32 {
    micros_u32(job.recv_at.duration_since(job.enqueued))
}

impl Server<'_, '_, '_> {
    /// Runs `job`'s one engine call and writes its one reply.
    pub(crate) fn serve_op(&self, job: Job<JobOp>, rec: &dyn Recorder) {
        let (engine, stats) = (self.engine, &*self.stats);
        let opts =
            QueryOpts { deadline: job.deadline, trace_id: job.trace_id, ..QueryOpts::default() };
        // The engine call runs on this thread, so its pager window holds
        // this job's own stall; an op that reads no page reads 0.
        engine.pager().reset_stats();
        let exec_start = Instant::now();
        // Read by each arm the moment its engine call returns. `linger_us`
        // and `batch` are reserved wire fields: always 0 and 1.
        let clock = || {
            let stall_ns = engine.pager().window_stall_ns();
            ServerTiming {
                queue_us: queue_us(&job),
                exec_us: micros_u32(exec_start.elapsed()),
                stall_us: (stall_ns / 1_000).min(u32::MAX as u64) as u32,
                batch: 1,
                ..Default::default()
            }
        };
        let (req_id, trace_id) = (job.req_id, job.trace_id);
        // The one accounting path of every ranked op, `QUERY` and `EXEC`.
        let ranked = |res: Result<QueryResult, QueryError>| {
            let mut timing = clock();
            match res {
                Ok(mut res) => {
                    // Fold the engine's per-query trace (records stamped
                    // with the trace id) into the server's ring, so one
                    // drain tells the whole request-scoped story.
                    if let (true, Some(trace)) = (rec.enabled(), res.trace.take()) {
                        rec.absorb(trace);
                    }
                    let outcome = self.account_ranked(&res, &mut timing);
                    let frame = Frame::Response(ResponseFrame {
                        req_id,
                        trace_id,
                        timing,
                        degraded: res.degraded.as_ref().map(|d| d.reason.clone()),
                        neighbors: res
                            .neighbors
                            .iter()
                            .map(|n| WireNeighbor { id: n.id, lb: n.range.lb, ub: n.range.ub })
                            .collect(),
                        radius: res.radius,
                    });
                    (timing, Some(outcome), frame)
                }
                Err(e) => {
                    stats.query_errors.inc();
                    let frame =
                        Frame::error(req_id, ErrorCode::FaultBudgetExceeded, &e.to_string());
                    (timing, Some(SlowOutcome::Error), frame)
                }
            }
        };
        // Each arm: the engine call, the clock, the frame — and, for the
        // ranked ops, how the slow log should file the request.
        let (timing, outcome, frame) = match &job.payload {
            JobOp::Query { point, k, within } => {
                let opts = QueryOpts { within: Some(*within), ..opts };
                ranked(engine.try_query_with(*point, *k, &opts))
            }
            JobOp::Exec { point, k, seeds, cands } => {
                ranked(engine.exec_ranked(*point, *k, seeds, cands, &opts))
            }
            JobOp::Seeds { xy, k } => {
                let (seeds, timing) = (engine.seeds2d(*xy, *k), clock());
                let seeds = seeds.iter().map(|(d, id, p)| (*d, wire_object(*id, p))).collect();
                (timing, None, Frame::Seeds(SeedsFrame { req_id, trace_id, seeds }))
            }
            JobOp::Range { xy, radius } => {
                let (objs, timing) = (engine.range2d(*xy, *radius), clock());
                let objects = objs.iter().map(|(id, p)| wire_object(*id, p)).collect();
                (timing, None, Frame::Range(RangeFrame { req_id, trace_id, objects }))
            }
        };
        if !matches!(frame, Frame::Error(_)) {
            stats.completed.inc();
        }
        // A job is a batch of one: the two counters stay for the harness
        // that divides them.
        stats.batches.inc();
        stats.batched_requests.inc();
        stats.exec_us.record(timing.exec_us as u64);
        stats.stall_us.record(timing.stall_us as u64);
        let latency = micros_u64(job.enqueued.elapsed());
        stats.latency_us.record(latency);
        if let Some(outcome) = outcome {
            self.capture(&job, latency, timing, outcome);
        }
        if rec.enabled() {
            rec.span(
                "serve_request",
                trace_id,
                vec![
                    field("dur_us", latency),
                    field("req_id", req_id),
                    field("queue_us", timing.queue_us as u64),
                    field("exec_us", timing.exec_us as u64),
                    field("stall_us", timing.stall_us as u64),
                ],
            );
        }
        job.reply(stats, &frame);
    }

    /// Books a ranked answer's engine-side numbers, fills the four MR3
    /// steps into `timing`, and says how the request ended.
    fn account_ranked(&self, res: &QueryResult, timing: &mut ServerTiming) -> SlowOutcome {
        let stats = &self.stats;
        let stages = res.stats.stages;
        timing.knn2d_us = stages.knn2d_us.min(u32::MAX as u64) as u32;
        timing.radius_us = stages.radius_us.min(u32::MAX as u64) as u32;
        timing.range_us = stages.range_us.min(u32::MAX as u64) as u32;
        timing.rank_us = stages.rank_us.min(u32::MAX as u64) as u32;
        stats.stage_knn2d_us.record(stages.knn2d_us);
        stats.stage_radius_us.record(stages.radius_us);
        // Steps 3-4 ran only for an answer: a query stopped at its tile's
        // edge (or asked for no neighbours) returns none.
        if !res.neighbors.is_empty() {
            stats.stage_range_us.record(stages.range_us);
            stats.stage_rank_us.record(stages.rank_us);
        }
        stats.kernel.dijkstra_pushes.add(res.stats.queue_pushes);
        stats.kernel.dijkstra_pops.add(res.stats.queue_pops);
        stats.kernel.dijkstra_stale_pops.add(res.stats.stale_pops);
        stats.kernel.dijkstra_settled.add(res.stats.settled as u64);
        if res.degraded.is_some() {
            stats.degraded.inc();
            SlowOutcome::Degraded
        } else {
            SlowOutcome::Ok
        }
    }

    /// Files the request in the slow-query log if it belongs there.
    fn capture(&self, job: &Job<JobOp>, total_us: u64, timing: ServerTiming, outcome: SlowOutcome) {
        if self.slow.wants(total_us, outcome) {
            self.stats.slow_captured.inc();
            let (trace_id, req_id) = (job.trace_id, job.req_id);
            self.slow.push(SlowEntry { trace_id, req_id, total_us, timing, outcome });
        }
    }

    /// The edge found `job`'s budget spent at dequeue: the slow log keeps
    /// it, with the queue as its only stage.
    pub(crate) fn capture_expired(&self, job: &Job<JobOp>) {
        let total_us = micros_u64(job.recv_at.duration_since(job.enqueued));
        let timing = ServerTiming { queue_us: queue_us(job), ..Default::default() };
        self.capture(job, total_us, timing, SlowOutcome::Expired);
    }
}
