//! `serve_pipelined` and `shard_straddle`: the engine behind the wire
//! protocol, in process. One server (or two tile shards behind a router,
//! wired as `sknn shard` wires them) runs on scoped threads; `clients`
//! connections each keep `OUTSTANDING` requests in flight, closed loop.
//! Every reply is checked bit for bit against a separate engine's answer
//! computed before the clock starts.

use crate::pace::Pace;
use crate::stats::{answer_bits, median, quantile, ratio, well_formed, AnswerBits, Ops, Report};
use crate::trace::Tracer;
use crate::world::{self, build_engine, with_cold_builds, BuildTimes, World};
use crate::{probes, Ctx};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use surface_knn::prelude::*;
use surface_knn::serve::{Client, Frame, ResponseFrame, ServeConfig, ServeStats, Server};
use surface_knn::shard::{Router, RouterConfig, RouterStats, ShardMap, ShardSpec};

/// Requests each connection keeps in flight. A population of one per
/// connection gives the micro-batcher batches of at most two; four per
/// connection is what makes queue, linger and batch-mate wait measurable.
const OUTSTANDING: usize = 4;
/// A reply that takes longer than this is a dead dispatcher, not a slow
/// one: the connection gives up and its requests count as failed.
const READ_TIMEOUT: Duration = Duration::from_secs(20);
/// Server-side trace ring, records.
const TRACE_RING: usize = 1 << 16;

/// Open-loop phase (informational): rate, and the latency limit a request
/// timed from its *due* time must meet.
const OPEN_RATE_PER_S: f64 = 10.0;
const OPEN_LIMIT_MS: f64 = 250.0;

fn serve_config(ctx: &Ctx, instance: String) -> ServeConfig {
    ServeConfig { exec_threads: ctx.clients, instance, ..ServeConfig::default() }
}

/// The running deployment as a client sees it.
struct Fleet {
    addr: SocketAddr,
    servers: Vec<Arc<ServeStats>>,
    router: Option<Arc<RouterStats>>,
}

/// Bind and run the deployment over `w`'s engines — one server, or one
/// per tile plus a router — call `body` against it, then drain it.
/// Returns `body`'s result and how many obs records the servers traced.
fn with_fleet<R>(
    ctx: &Ctx,
    w: &World<'_>,
    traced: bool,
    body: impl FnOnce(&Fleet) -> R,
) -> (R, usize) {
    let sharded = w.engines.len() > 1;
    let mut servers: Vec<Server<'_, '_, '_>> = w
        .engines
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let instance = if sharded { format!("shard{i}") } else { String::new() };
            Server::bind(e, "127.0.0.1:0", serve_config(ctx, instance)).expect("bind server")
        })
        .collect();
    if traced {
        servers.iter_mut().for_each(|s| s.enable_tracing(TRACE_RING));
    }
    let servers = servers;
    std::thread::scope(|scope| {
        let runs: Vec<_> = servers.iter().map(|s| scope.spawn(move || s.run())).collect();
        // The router's bind asks every shard for its object count, so the
        // shards must already be serving.
        let router = sharded.then(|| {
            let map = ShardMap::new(
                w.tiles
                    .iter()
                    .zip(&servers)
                    .map(|(&tile, s)| ShardSpec { tile, addr: s.local_addr().to_string() })
                    .collect(),
            );
            let mut r =
                Router::bind(map, "127.0.0.1:0", RouterConfig::default()).expect("bind router");
            if traced {
                r.enable_tracing(TRACE_RING);
            }
            r
        });
        let (out, mut records) = std::thread::scope(|inner| {
            let rrun = router.as_ref().map(|r| inner.spawn(move || r.run()));
            let fleet = Fleet {
                addr: router.as_ref().map_or(servers[0].local_addr(), |r| r.local_addr()),
                servers: servers.iter().map(|s| s.stats()).collect(),
                router: router.as_ref().map(|r| r.stats()),
            };
            let out = body(&fleet);
            // Router first: once it has drained, no query still holds a
            // shard leg and the shards can drain in any order.
            let mut records = 0;
            if let (Some(r), Some(run)) = (&router, rrun) {
                r.handle().shutdown();
                records += run.join().expect("router thread").map_or(0, |t| t.records.len());
            }
            (out, records)
        });
        servers.iter().for_each(|s| s.handle().shutdown());
        for run in runs {
            records += run.join().expect("server thread").map_or(0, |t| t.records.len());
        }
        (out, records)
    })
}

/// What the verify engine says the answer to one pool entry is.
struct Expected {
    bits: AnswerBits,
    radius: f64,
}

/// One verified reply.
struct Reply {
    op: u64,
    sent: Instant,
    received: Instant,
    frame: ResponseFrame,
}

#[derive(Default)]
struct ClientPhase {
    replies: Vec<Reply>,
    attempted: u64,
    failed: u64,
    /// Reference-kernel samples of every client thread.
    pace: Pace,
}

fn reply_ok(frame: &ResponseFrame, want: &Expected, k: usize) -> bool {
    let got: AnswerBits =
        frame.neighbors.iter().map(|n| (n.id, n.lb.to_bits(), n.ub.to_bits())).collect();
    frame.degraded.is_none() && well_formed(&got, k) && got == want.bits
}

fn ops_of(phase: &ClientPhase) -> Ops {
    let mut ops = Ops::default();
    for r in &phase.replies {
        ops.push(r.sent, r.received, 0.0);
    }
    ops
}

struct OpenLoop {
    /// Latency from each request's due time, ms, for requests answered well.
    latency_ms: Vec<f64>,
    /// How late the generator sent each request, ms.
    late_ms: Vec<f64>,
    sent: u64,
    missed: u64,
}

/// What the clients send and what must come back: the pool, cycled in
/// order off one shared op counter whatever the interleaving, and the
/// oracle's answer to each entry.
struct Traffic<'a> {
    ctx: &'a Ctx,
    pool: &'a [SurfacePoint],
    expected: &'a [Expected],
    next_op: AtomicU64,
}

impl Traffic<'_> {
    /// The closed loop: `ctx.clients` connections, each refilling its window of
    /// `OUTSTANDING` requests as replies arrive. Runs at least one pass over
    /// the pool, then until `window` is over.
    fn closed_loop(&self, addr: SocketAddr, window: Duration) -> (Instant, ClientPhase) {
        let Traffic { ctx, pool, expected, next_op } = self;
        let start = Instant::now();
        let until = start + window;
        let first_op = next_op.load(Ordering::Relaxed);
        let take_op = || {
            let more = next_op.load(Ordering::Relaxed) - first_op < pool.len() as u64
                || Instant::now() < until;
            more.then(|| next_op.fetch_add(1, Ordering::Relaxed))
        };
        let phases: Vec<ClientPhase> = std::thread::scope(|s| {
            let conns: Vec<_> = (0..ctx.clients)
                .map(|_| {
                    s.spawn(|| {
                        let mut out = ClientPhase::default();
                        let mut client = match Client::connect_with_timeout(addr, READ_TIMEOUT) {
                            Ok(c) => c,
                            Err(_) => {
                                out.attempted = 1;
                                out.failed = 1;
                                return out;
                            }
                        };
                        let mut inflight: HashMap<u64, Instant> = HashMap::new();
                        loop {
                            while inflight.len() < OUTSTANDING {
                                let Some(op) = take_op() else { break };
                                let q = pool[(op % pool.len() as u64) as usize];
                                out.attempted += 1;
                                out.pace.sample();
                                let sent = Instant::now();
                                if client.send_query(op, q, ctx.k as u32, 0).is_err() {
                                    out.failed += 1;
                                } else {
                                    inflight.insert(op, sent);
                                }
                            }
                            if inflight.is_empty() {
                                return out;
                            }
                            match client.recv() {
                                Ok(Frame::Response(frame)) => {
                                    let received = Instant::now();
                                    let Some(sent) = inflight.remove(&frame.req_id) else {
                                        out.failed += 1;
                                        continue;
                                    };
                                    let op = frame.req_id;
                                    let want = &expected[(op % pool.len() as u64) as usize];
                                    if reply_ok(&frame, want, ctx.k) {
                                        out.replies.push(Reply { op, sent, received, frame });
                                    } else {
                                        out.failed += 1;
                                    }
                                }
                                // Shed, expired, refused: the request is answered,
                                // but not with neighbours.
                                Ok(Frame::Error(e)) => {
                                    inflight.remove(&e.req_id);
                                    out.failed += 1;
                                }
                                // Timeout, closed socket or a frame that makes no
                                // sense here: everything in flight is lost.
                                Ok(_) | Err(_) => {
                                    out.failed += inflight.len() as u64;
                                    return out;
                                }
                            }
                        }
                    })
                })
                .collect();
            conns.into_iter().map(|c| c.join().expect("client thread")).collect()
        });
        let mut all = ClientPhase::default();
        for p in phases {
            all.replies.extend(p.replies);
            all.attempted += p.attempted;
            all.failed += p.failed;
            all.pace.merge(p.pace);
        }
        all.replies.sort_by_key(|r| r.received);
        (start, all)
    }

    /// The open loop: one connection, requests due every `1 / OPEN_RATE_PER_S`
    /// whatever the server is doing, each timed from when it was *due* so a
    /// stall charges every request it delays.
    fn open_loop(&self, addr: SocketAddr, duration: Duration) -> OpenLoop {
        let Traffic { ctx, pool, expected, .. } = *self;
        let n = (duration.as_secs_f64() * OPEN_RATE_PER_S).round().max(1.0) as u64;
        let period = Duration::from_secs_f64(1.0 / OPEN_RATE_PER_S);
        let mut out = OpenLoop { latency_ms: Vec::new(), late_ms: Vec::new(), sent: n, missed: 0 };
        let (Ok(mut tx), true) = (Client::connect_with_timeout(addr, READ_TIMEOUT), n > 0) else {
            out.missed = n;
            return out;
        };
        let Ok(mut rx) = tx.try_clone() else {
            out.missed = n;
            return out;
        };
        let t0 = Instant::now() + Duration::from_millis(5);
        let due = |i: u64| t0 + period * i as u32;
        let latency_ms = std::thread::scope(|s| {
            let receiver = s.spawn(move || {
                let mut lat = Vec::new();
                for _ in 0..n {
                    match rx.recv() {
                        Ok(Frame::Response(f)) if f.req_id < n => {
                            let want = &expected[(f.req_id % pool.len() as u64) as usize];
                            if reply_ok(&f, want, ctx.k) {
                                lat.push((Instant::now() - due(f.req_id)).as_secs_f64() * 1e3);
                            }
                        }
                        Ok(Frame::Error(_)) => {}
                        _ => break,
                    }
                }
                lat
            });
            for i in 0..n {
                if let Some(wait) = due(i).checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                out.late_ms
                    .push(Instant::now().saturating_duration_since(due(i)).as_secs_f64() * 1e3);
                let _ = tx.send_query(i, pool[(i % pool.len() as u64) as usize], ctx.k as u32, 0);
            }
            receiver.join().expect("open-loop receiver")
        });
        // Failed, refused and never-answered requests miss any limit.
        let met = latency_ms.iter().filter(|&&l| l <= OPEN_LIMIT_MS).count() as u64;
        out.missed = n - met;
        out.latency_ms = latency_ms;
        out
    }
}

pub fn run(ctx: &Ctx, sharded: bool, rep: &mut Report) {
    // Ready means serving: every listener bound and its thread accepting.
    let serving = |w: &World<'_>, ready: &mut dyn FnMut()| {
        with_fleet(ctx, w, false, |_| ready());
    };
    let shards = if sharded { 2 } else { 1 };
    let ((), setup_s) =
        with_cold_builds(ctx, ctx.objects, shards, serving, |w| measure(ctx, sharded, w, rep));
    if !ctx.traced {
        rep.set("setup_s", setup_s);
    }
}

fn measure(ctx: &Ctx, sharded: bool, mut w: World<'_>, rep: &mut Report) {
    let name = if sharded { "shard_straddle" } else { "serve_pipelined" };
    w.engines.iter_mut().for_each(|e| e.cold_cache = false);
    let pool = if sharded {
        world::straddle_mix(ctx, w.scene, ctx.serve_pool, w.tiles[0].hi.x)
    } else {
        world::hot_mix(ctx, w.scene, ctx.serve_pool)
    };
    // The oracle: a separate engine over the whole object set, asked
    // directly, before any clock starts.
    let expected: Vec<Expected> = {
        let mut verify = build_engine(w.mesh, w.scene, &w.cfg, &mut BuildTimes::default());
        verify.cold_cache = false;
        let batch: Vec<_> = pool.iter().map(|&q| (q, ctx.k)).collect();
        verify
            .try_query_batch(&batch, ctx.clients)
            .into_iter()
            .map(|r| {
                let r = r.expect("verify engine answers");
                Expected { bits: answer_bits(&r.neighbors), radius: r.radius }
            })
            .collect()
    };

    let traffic = Traffic { ctx, pool: &pool, expected: &expected, next_op: AtomicU64::new(0) };
    let window = Duration::from_secs_f64(ctx.seconds);
    let mut attempted = 0;
    let mut failed = 0;
    let mut tally = |p: &ClientPhase| {
        attempted += p.attempted;
        failed += p.failed;
    };
    // Untimed pass over the pool: fill the caches, as `warm_cpu` does.
    let warm_up = |fleet: &Fleet| traffic.closed_loop(fleet.addr, Duration::ZERO).1;
    if !ctx.traced {
        let ((start, phase), _) = with_fleet(ctx, &w, false, |fleet| {
            tally(&warm_up(fleet));
            traffic.closed_loop(fleet.addr, window)
        });
        tally(&phase);
        ops_of(&phase).report(rep, &phase.pace.clock(), start);
    } else {
        // Untraced reference first (cache fill plus a quarter of the
        // window), then everything again with tracing on.
        let ((_, plain), _) = with_fleet(ctx, &w, false, |fleet| {
            tally(&warm_up(fleet));
            traffic.closed_loop(fleet.addr, window / 4)
        });
        tally(&plain);
        w.engines.iter_mut().for_each(|e| e.enable_tracing());
        let engines: Vec<&Mr3Engine<'_, '_>> = w.engines.iter().collect();
        let cut_cache_before = crate::cut_cache_counts(&engines);
        let stall_before: u64 = engines.iter().map(|e| e.pager().stall_ns()).sum();
        let closed_window = if sharded { window * 3 / 4 } else { window / 2 };
        let mut tracer = Tracer::new();
        let ((phase, open, fleet_stats), records) = with_fleet(ctx, &w, true, |fleet| {
            let (_, phase) = traffic.closed_loop(fleet.addr, closed_window);
            let open = (!sharded)
                .then(|| traffic.open_loop(fleet.addr, (window / 4).max(Duration::from_secs(1))));
            (phase, open, FleetStats::read(fleet))
        });
        tally(&phase);
        let queries = phase.replies.len() as f64;
        rep.set(
            "obs.trace_overhead_ratio",
            ratio(median(&ops_of(&phase).raw_ms()), median(&ops_of(&plain).raw_ms())),
        );
        rep.set("obs.records_per_query", ratio(records as f64, queries));
        let stall: u64 = engines.iter().map(|e| e.pager().stall_ns()).sum();
        rep.set("store.stall_ms_per_query", ratio((stall - stall_before) as f64 / 1e6, queries));
        let hit_ratio = crate::report_cut_cache(rep, &engines, cut_cache_before, queries);
        rep.set("multires.cutcache_hit_ratio", hit_ratio);
        crate::report_build(rep, &w.times);
        report_serve(rep, &phase, &fleet_stats);
        if let Some(open) = &open {
            attempted += open.sent;
            failed += open.sent - open.latency_ms.len() as u64;
            rep.set("serve.open_p50_ms", median(&open.latency_ms));
            rep.set("serve.open_p95_ms", quantile(&open.latency_ms, 0.95));
            rep.set("serve.open_slo_miss_ratio", ratio(open.missed as f64, open.sent as f64));
            rep.set("bench.loadgen_late_p95_ms", quantile(&open.late_ms, 0.95));
        }
        if sharded {
            report_shard(rep, &w, &pool, &expected, &phase, &fleet_stats);
        }
        trace_replies(&mut tracer, &phase);
        w.engines.iter_mut().for_each(|e| e.disable_tracing());
        // Probe the first engine with the queries it is home to.
        let owner = world::probe_map(&w.tiles);
        let homed: Vec<SurfacePoint> =
            pool.iter().copied().filter(|q| owner.home(q.pos.xy()) == Some(0)).collect();
        probes::run(ctx, &w.engines[0], w.mesh, &homed, rep);
        crate::write_trace(ctx, name, &tracer);
    }
    rep.attempted = attempted;
    rep.failed = failed;
}

/// Counter values read off the fleet while it is still up.
struct FleetStats {
    accepted: u64,
    batches: u64,
    batched_requests: u64,
    shed: u64,
    expired: u64,
    router: Option<RouterCounts>,
}

struct RouterCounts {
    routed: u64,
    interior: u64,
    fanned_out: u64,
    cancelled_legs: u64,
    bound_violations: u64,
    queue_us_p50: f64,
}

impl FleetStats {
    fn read(fleet: &Fleet) -> Self {
        let sum = |f: &dyn Fn(&ServeStats) -> u64| fleet.servers.iter().map(|s| f(s)).sum::<u64>();
        let router = fleet.router.as_ref();
        FleetStats {
            accepted: sum(&|s| s.accepted.get()),
            batches: sum(&|s| s.batches.get()),
            batched_requests: sum(&|s| s.batched_requests.get()),
            shed: sum(&|s| s.shed.get()) + router.map_or(0, |r| r.shed.get()),
            expired: sum(&|s| s.expired.get()) + router.map_or(0, |r| r.expired.get()),
            router: router.map(|r| RouterCounts {
                routed: r.routed.get(),
                interior: r.interior.get(),
                fanned_out: r.fanned_out.get(),
                cancelled_legs: r.cancelled_legs.get(),
                bound_violations: r.bound_violations.get(),
                queue_us_p50: r.queue_us.quantile(0.5).unwrap_or(0) as f64,
            }),
        }
    }
}

fn own_stage_us(f: &ResponseFrame) -> f64 {
    let t = &f.timing;
    (t.knn2d_us + t.radius_us + t.range_us + t.rank_us) as f64
}

/// The `serve.*` rows: where a request's round trip went, from the
/// `ServerTiming` on each reply.
fn report_serve(rep: &mut Report, phase: &ClientPhase, stats: &FleetStats) {
    let col = |f: &dyn Fn(&Reply) -> f64| phase.replies.iter().map(f).collect::<Vec<f64>>();
    let rtt_us = |r: &Reply| (r.received - r.sent).as_secs_f64() * 1e6;
    let queue = col(&|r| r.frame.timing.queue_us as f64);
    rep.set("serve.queue_us_p50", median(&queue));
    rep.set("serve.queue_us_p95", quantile(&queue, 0.95));
    rep.set("serve.linger_us_p50", median(&col(&|r| r.frame.timing.linger_us as f64)));
    rep.set("serve.exec_us_p50", median(&col(&|r| r.frame.timing.exec_us as f64)));
    rep.set("serve.own_stage_us_p50", median(&col(&|r| own_stage_us(&r.frame))));
    rep.set(
        "serve.batchmate_wait_us_p50",
        median(&col(&|r| (r.frame.timing.exec_us as f64 - own_stage_us(&r.frame)).max(0.0))),
    );
    rep.set(
        "serve.wire_us_p50",
        median(&col(&|r| {
            let t = &r.frame.timing;
            (rtt_us(r) - (t.queue_us + t.linger_us + t.exec_us) as f64).max(0.0)
        })),
    );
    rep.set("serve.mean_batch", ratio(stats.batched_requests as f64, stats.batches as f64));
    rep.set("serve.shed", stats.shed as f64);
    rep.set("serve.expired", stats.expired as f64);
}

/// The `shard.*` rows. A query is classified interior or straddling the
/// way the router does it: by the union answer's step-2 radius.
fn report_shard(
    rep: &mut Report,
    w: &World<'_>,
    pool: &[SurfacePoint],
    expected: &[Expected],
    phase: &ClientPhase,
    stats: &FleetStats,
) {
    let Some(r) = &stats.router else { return };
    let routed = r.routed as f64;
    rep.set("shard.interior_ratio", ratio(r.interior as f64, routed));
    rep.set("shard.fanned_out_ratio", ratio(r.fanned_out as f64, routed));
    // Every query costs its home QUERY plus one speculative SEEDS per
    // shard; what is left over belongs to the straddles' RADIUS / RANGE /
    // EXEC legs.
    let base_legs = (1 + w.engines.len()) as f64;
    rep.set(
        "shard.legs_per_straddle",
        ratio(stats.accepted as f64 - base_legs * r.interior as f64, r.fanned_out as f64),
    );
    rep.set("shard.cancelled_legs_per_query", ratio(r.cancelled_legs as f64, routed));
    rep.set("shard.bound_violation_ratio", ratio(r.bound_violations as f64, routed));
    rep.set("shard.router_queue_us_p50", r.queue_us_p50);
    let owner = world::probe_map(&w.tiles);
    let (mut interior, mut straddle) = (Vec::new(), Vec::new());
    for reply in &phase.replies {
        let slot = (reply.op % pool.len() as u64) as usize;
        let xy = pool[slot].pos.xy();
        let home = owner.home(xy).expect("query inside the terrain");
        let ms = (reply.received - reply.sent).as_secs_f64() * 1e3;
        if owner.interior(home, xy, expected[slot].radius) {
            interior.push(ms);
        } else {
            straddle.push(ms);
        }
    }
    rep.set("shard.interior_p50_ms", median(&interior));
    rep.set("shard.straddle_p50_ms", median(&straddle));
}

/// Spans `client.rtt ▸ serve.queue | serve.linger | serve.exec ▸
/// core.step1..4` for every reply of the traced closed loop.
fn trace_replies(tr: &mut Tracer, phase: &ClientPhase) {
    for r in &phase.replies {
        let t = &r.frame.timing;
        let start = tr.at(r.sent);
        let root = tr.span(r.op, 0, "client.rtt", start, tr.at(r.received) - start);
        tr.children(
            r.op,
            root,
            start,
            &[("serve.queue", t.queue_us as f64), ("serve.linger", t.linger_us as f64)],
        );
        let exec_start = start + (t.queue_us + t.linger_us) as f64;
        let exec = tr.span(r.op, root, "serve.exec", exec_start, t.exec_us as f64);
        tr.children(
            r.op,
            exec,
            exec_start,
            &[
                ("core.step1_knn2d", t.knn2d_us as f64),
                ("core.step2_radius", t.radius_us as f64),
                ("core.step3_range", t.range_us as f64),
                ("core.step4_rank", t.rank_us as f64),
            ],
        );
        tr.count(r.op, "serve.batch", t.batch as f64);
        tr.count(r.op, "store.stall_us", t.stall_us as f64);
    }
}
