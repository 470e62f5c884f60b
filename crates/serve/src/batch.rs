//! The adaptive micro-batcher: a single dispatcher thread that drains the
//! bounded admission queue, coalescing whatever is waiting into one
//! `par_map` over the engine's entry points.
//!
//! The coalescing rule is the classic linger: the first job is taken the
//! moment it is available, then the dispatcher gathers more until the
//! batch is full (`max_batch`) or a short window (`max_wait`) closes.
//! Under light load batches degenerate to size 1 and add at most
//! `max_wait` of latency; under concurrent load the queue is non-empty
//! when the dispatcher returns from the engine, so batches fill without
//! waiting at all — throughput rises with offered load instead of
//! collapsing into per-request lock churn.
//!
//! Each job carries three clocks from the same monotonic source:
//! `enqueued` (admission), `recv_at` (dispatcher pickup — stamped at the
//! moment the job leaves the lanes, so queue time and linger time are
//! genuinely disjoint), and the batch-wide `exec_start`. The stage
//! decomposition the response reports is therefore a partition of real
//! wall time: queue (enqueued→recv) + linger (recv→exec) + engine stages
//! ≤ end-to-end latency.
//!
//! Termination doubles as graceful drain: [`Lanes::close`] refuses new
//! pushes but keeps handing out what is already queued, and `pop` returns
//! `None` only once the lanes are closed *and* empty. The edge closes
//! them after the readers have stopped, so every admitted request still
//! gets its reply before the loop exits.

use crate::edge::{Job, Lanes};
use crate::protocol::{
    ErrorCode, Frame, RadiusFrame, RangeFrame, ResponseFrame, SeedsFrame, ServerTiming,
    WireNeighbor, WireObject,
};
use crate::slowlog::{SlowEntry, SlowOutcome, SlowQueryLog};
use crate::stats::ServeStats;
use sknn_core::metrics::QueryResult;
use sknn_core::mr3::{Mr3Engine, QueryOpts};
use sknn_core::resilience::QueryError;
use sknn_core::workload::SurfacePoint;
use sknn_geom::Point2;
use sknn_obs::{field, Recorder};
use std::time::{Duration, Instant};

/// What an admitted request asks the engine for. `Query` is the whole
/// MR3 pipeline; the rest are the decomposed shard ops (a router
/// reconstructing one query across a fleet). All ops flow
/// through the same lanes and batches, so every op is cancellable while
/// queued and every reply carries the same timing envelope.
pub enum JobOp {
    /// Full k-NN query (steps 1–4).
    Query { point: SurfacePoint, k: usize },
    /// Step 1 only: local 2D seeds.
    Seeds { xy: Point2, k: usize },
    /// Step 3 only: local 2D range collection.
    Range { xy: Point2, radius: f64 },
    /// Step 2 with explicit merged seeds.
    Radius { point: SurfacePoint, seeds: Vec<(u32, SurfacePoint)> },
    /// Steps 2+4 with explicit merged lists (home-shard coupled ranking).
    Exec {
        point: SurfacePoint,
        k: usize,
        seeds: Vec<(u32, SurfacePoint)>,
        cands: Vec<(u32, SurfacePoint)>,
    },
}

/// Batching knobs, copied out of the server config.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BatchPolicy {
    pub max_batch: usize,
    pub max_wait: Duration,
    pub exec_threads: usize,
}

/// Dispatcher thread body: drain the lanes into micro-batches until the
/// lanes are closed and empty.
pub(crate) fn dispatch_loop(
    engine: &Mr3Engine<'_, '_>,
    lanes: &Lanes<JobOp>,
    policy: BatchPolicy,
    stats: &ServeStats,
    slow: &SlowQueryLog,
    rec: &dyn Recorder,
) {
    while let Some(mut first) = lanes.pop() {
        first.recv_at = Instant::now();
        let mut jobs = vec![first];
        let linger_until = Instant::now() + policy.max_wait;
        while jobs.len() < policy.max_batch {
            let Some(mut job) = lanes.pop_until(linger_until) else { break };
            job.recv_at = Instant::now();
            jobs.push(job);
        }
        run_batch(engine, jobs, lanes, policy, stats, slow, rec);
    }
}

/// Per-op engine output, paired back with its job after the batch runs.
/// Lives only for the duration of one batch; boxing the ranked result to
/// even out variant sizes would cost an allocation per query.
#[allow(clippy::large_enum_variant)]
enum OpOut {
    /// `Query` and `Exec`: a full ranked result.
    Ranked(Result<QueryResult, QueryError>),
    /// `Seeds`: local `(2D distance, id, point)` seeds, canonical order.
    Seeds(Vec<(f64, u32, SurfacePoint)>),
    /// `Range`: local in-range objects, ascending by id.
    Range(Vec<(u32, SurfacePoint)>),
    /// `Radius`: the estimated search radius (no neighbours).
    Radius(Result<QueryResult, QueryError>),
    /// The engine call panicked; the payload's message.
    Panicked(String),
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

fn run_batch(
    engine: &Mr3Engine<'_, '_>,
    jobs: Vec<Job<JobOp>>,
    lanes: &Lanes<JobOp>,
    policy: BatchPolicy,
    stats: &ServeStats,
    slow: &SlowQueryLog,
    rec: &dyn Recorder,
) {
    // Dequeue-time bookkeeping and deadline enforcement: a request whose
    // budget burned away in the queue is answered immediately instead of
    // occupying an engine slot to produce a reply nobody wants.
    let dequeued = Instant::now();
    let mut live = Vec::with_capacity(jobs.len());
    for job in jobs {
        stats.queue_us.record(micros_u64(job.recv_at.duration_since(job.enqueued)));
        if job.deadline.is_some_and(|d| dequeued >= d) {
            stats.expired.inc();
            let total_us = micros_u64(dequeued.duration_since(job.enqueued));
            if slow.wants(total_us, SlowOutcome::Expired) {
                stats.slow_captured.inc();
                slow.push(SlowEntry {
                    trace_id: job.trace_id,
                    req_id: job.req_id,
                    total_us,
                    timing: ServerTiming {
                        queue_us: micros_u32(job.recv_at.duration_since(job.enqueued)),
                        ..Default::default()
                    },
                    outcome: SlowOutcome::Expired,
                });
            }
            job.refuse(stats, ErrorCode::DeadlineExpired, "deadline expired while queued");
            continue;
        }
        live.push(job);
    }
    if live.is_empty() {
        return;
    }

    let stall_before_ns = engine.pager().stall_ns();
    let exec_start = Instant::now();
    // Each element is an independent engine call, so results do not
    // depend on what rode along in the batch.
    let results: Vec<OpOut> = sknn_exec::par_map(policy.exec_threads, &live, |_, job| {
        let opts = QueryOpts { deadline: job.deadline, trace_id: job.trace_id };
        // A panic in one engine call fails that request only: `par_map`
        // would re-raise it here and kill the dispatcher, leaving every
        // client blocked on a reply. Everything the engine shares across
        // queries recovers from an unwinding holder (poison-tolerant
        // locks, drop-guarded single-flight latches, a scratch that is
        // dropped rather than pooled), so serving on is sound.
        let run = std::panic::AssertUnwindSafe(|| match &job.payload {
            JobOp::Query { point, k } => OpOut::Ranked(engine.try_query_with(*point, *k, &opts)),
            JobOp::Exec { point, k, seeds, cands } => {
                OpOut::Ranked(engine.exec_ranked(*point, *k, seeds, cands, &opts))
            }
            JobOp::Seeds { xy, k } => OpOut::Seeds(engine.seeds2d(*xy, *k)),
            JobOp::Range { xy, radius } => OpOut::Range(engine.range2d(*xy, *radius)),
            JobOp::Radius { point, seeds } => {
                OpOut::Radius(engine.estimate_radius_for(*point, seeds, &opts))
            }
        });
        std::panic::catch_unwind(run).unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned());
            OpOut::Panicked(msg.unwrap_or_else(|| "non-string panic payload".to_string()))
        })
    });
    let exec_us = micros_u32(exec_start.elapsed());
    // The pager's stall clock is cumulative; the difference across the
    // engine call is this batch's stall wall time. Stalls of concurrent
    // batch members overlap, so this is attributed per batch, not split
    // per request.
    let stall_us = ((engine.pager().stall_ns().saturating_sub(stall_before_ns)) / 1_000)
        .min(u32::MAX as u64) as u32;

    let size = live.len();
    let batch_id = stats.batches.get();
    stats.batches.inc();
    stats.batched_requests.add(size as u64);
    stats.batch_size.record(size as u64);
    stats.stall_us.record(stall_us as u64);
    if rec.enabled() {
        rec.event(
            "serve_batch",
            batch_id,
            vec![
                field("size", size),
                field("exec_us", exec_us as u64),
                field("stall_us", stall_us as u64),
                field("queue_depth", lanes.len()),
            ],
        );
    }

    for (job, mut result) in live.into_iter().zip(results) {
        // Fold the engine's per-query trace (records stamped with the
        // trace id) into the server's ring, so one drain tells the whole
        // request-scoped story.
        if let OpOut::Ranked(Ok(res)) | OpOut::Radius(Ok(res)) = &mut result {
            if let (true, Some(trace)) = (rec.enabled(), res.trace.take()) {
                rec.absorb(trace);
            }
        }
        let latency = micros_u64(Instant::now().duration_since(job.enqueued));
        stats.latency_us.record(latency);
        let queue_us = micros_u32(job.recv_at.duration_since(job.enqueued));
        let linger_us = micros_u32(exec_start.duration_since(job.recv_at));
        stats.linger_us.record(linger_us as u64);
        stats.exec_us.record(exec_us as u64);
        let mut timing = ServerTiming {
            queue_us,
            linger_us,
            exec_us,
            stall_us,
            batch: size.min(u16::MAX as usize) as u16,
            ..Default::default()
        };
        let frame = match result {
            OpOut::Seeds(seeds) => {
                stats.completed.inc();
                Frame::Seeds(SeedsFrame {
                    req_id: job.req_id,
                    trace_id: job.trace_id,
                    seeds: seeds.iter().map(|(d, id, p)| (*d, wire_object(*id, p))).collect(),
                })
            }
            OpOut::Range(objs) => {
                stats.completed.inc();
                Frame::Range(RangeFrame {
                    req_id: job.req_id,
                    trace_id: job.trace_id,
                    objects: objs.iter().map(|(id, p)| wire_object(*id, p)).collect(),
                })
            }
            OpOut::Radius(Ok(res)) => {
                stats.completed.inc();
                Frame::Radius(RadiusFrame {
                    req_id: job.req_id,
                    trace_id: job.trace_id,
                    radius: res.radius,
                })
            }
            OpOut::Radius(Err(e)) => {
                stats.query_errors.inc();
                Frame::error(job.req_id, ErrorCode::FaultBudgetExceeded, &e.to_string())
            }
            OpOut::Panicked(msg) => {
                stats.panics.inc();
                Frame::error(job.req_id, ErrorCode::Internal, &format!("engine panicked: {msg}"))
            }
            OpOut::Ranked(Ok(res)) => {
                stats.completed.inc();
                let stages = res.stats.stages;
                timing.knn2d_us = stages.knn2d_us.min(u32::MAX as u64) as u32;
                timing.radius_us = stages.radius_us.min(u32::MAX as u64) as u32;
                timing.range_us = stages.range_us.min(u32::MAX as u64) as u32;
                timing.rank_us = stages.rank_us.min(u32::MAX as u64) as u32;
                stats.stage_knn2d_us.record(stages.knn2d_us);
                stats.stage_radius_us.record(stages.radius_us);
                stats.stage_range_us.record(stages.range_us);
                stats.stage_rank_us.record(stages.rank_us);
                stats.kernel.dijkstra_pushes.add(res.stats.queue_pushes);
                stats.kernel.dijkstra_pops.add(res.stats.queue_pops);
                stats.kernel.dijkstra_stale_pops.add(res.stats.stale_pops);
                stats.kernel.dijkstra_settled.add(res.stats.settled as u64);
                if res.degraded.is_some() {
                    stats.degraded.inc();
                }
                let outcome =
                    if res.degraded.is_some() { SlowOutcome::Degraded } else { SlowOutcome::Ok };
                if slow.wants(latency, outcome) {
                    stats.slow_captured.inc();
                    slow.push(SlowEntry {
                        trace_id: job.trace_id,
                        req_id: job.req_id,
                        total_us: latency,
                        timing,
                        outcome,
                    });
                }
                Frame::Response(ResponseFrame {
                    req_id: job.req_id,
                    trace_id: job.trace_id,
                    timing,
                    degraded: res.degraded.as_ref().map(|d| d.reason.clone()),
                    neighbors: res
                        .neighbors
                        .iter()
                        .map(|n| WireNeighbor { id: n.id, lb: n.range.lb, ub: n.range.ub })
                        .collect(),
                    radius: res.radius,
                })
            }
            OpOut::Ranked(Err(e @ QueryError::FaultBudgetExceeded { .. })) => {
                stats.query_errors.inc();
                if slow.wants(latency, SlowOutcome::Error) {
                    stats.slow_captured.inc();
                    slow.push(SlowEntry {
                        trace_id: job.trace_id,
                        req_id: job.req_id,
                        total_us: latency,
                        timing,
                        outcome: SlowOutcome::Error,
                    });
                }
                Frame::error(job.req_id, ErrorCode::FaultBudgetExceeded, &e.to_string())
            }
        };
        if rec.enabled() {
            rec.span(
                "serve_request",
                job.trace_id,
                vec![
                    field("dur_us", latency),
                    field("req_id", job.req_id),
                    field("queue_us", queue_us as u64),
                    field("linger_us", linger_us as u64),
                    field("batch", size),
                ],
            );
        }
        job.reply(stats, &frame);
    }
}
