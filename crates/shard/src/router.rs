//! The shard router: a process that fronts N engine shards and answers
//! the ordinary query protocol with results bit-identical to a single
//! engine over the union terrain.
//!
//! # Orchestration
//!
//! **The home shard decides.** Every query is sent to its home shard
//! (the tile owning the query point) as one `QUERY` carrying the home's
//! [open tile](ShardMap::open_tile). The shard applies the interior test
//! itself, right after step 2: when the step-2 circle lies strictly
//! inside the tile (and the shard holds at least `k` objects), no other
//! shard can own a candidate, the shard ranks, and its answer *is* the
//! union answer — one leg for interior queries, which dominate when
//! tiles are large relative to query radii. Otherwise it stops and
//! replies with no neighbours. Nothing is sent speculatively, so nothing
//! is ever withdrawn.
//!
//! A query that straddles a boundary switches to the decomposed plan:
//!
//! 1. `SEEDS` to every shard in parallel; merge the per-shard seed lists
//!    by `(distance, id)` — the same total order the engines' canonical
//!    seed selection uses, so the merged top-k is exactly the union
//!    engine's seed list;
//! 2. `EXEC` on the home shard over the merged seeds and no candidates
//!    → the union step-2 radius, bit-exact (the estimate is a
//!    deterministic function of the seed list; ranking nothing ends at
//!    its first termination test);
//! 3. `RANGE` fan-out to every shard whose tile could hold an in-range
//!    object ([`ShardMap::overlapping`]); concatenate ascending by id —
//!    ownership is a partition, so this is exactly the union engine's
//!    step-3 candidate list;
//! 4. `EXEC` on the home shard over the merged lists → up to `k + 1`
//!    ranked neighbors; the router re-checks the `ub(p_k) ≤ lb(p_{k+1})`
//!    termination bound and truncates to `k`.
//!
//! Every downstream call is population- and order-explicit, so the final
//! ids, `lb`/`ub` intervals, and radius are bit-identical to a single
//! engine — the property `tests/shard_e2e.rs` and `loadgen
//! --verify-data` enforce. A leg whose list would not fit one frame is
//! not sent: the client gets the typed `BadRequest` naming the list
//! ([`Frame::encode_whole`]) instead of an answer over a cut list.
//!
//! # Admission
//!
//! The router binds the same serving edge as its shards
//! ([`sknn_serve::edge`]): one bounded FIFO admission queue, typed
//! `Overloaded`/`ShuttingDown`/`DeadlineExpired` errors, and graceful
//! drain. It takes `QUERY` frames only; each of the edge's `workers`
//! threads drives one query's orchestration at a time, and every leg it
//! sends carries the query's remaining slack as its deadline. Shard
//! connections are persistent multiplexed [`PoolClient`]s.

use crate::map::ShardMap;
use crate::stats::RouterStats;
use sknn_geom::{Point2, Rect2};
use sknn_obs::{field, QueryTrace, Recorder, Registry};
use sknn_serve::edge::{Edge, EdgeConfig, EdgeStats, Handle, Job, Service};
use sknn_serve::pool::{InFlight, PoolClient, PoolError};
use sknn_serve::protocol::{
    ErrorCode, ErrorFrame, ExecRequestFrame, Frame, QueryFrame, RangeRequestFrame, Request,
    ResponseFrame, SeedsRequestFrame, WireObject,
};
use sknn_serve::Client;
use std::io;
use std::marker::PhantomData;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-leg wait budget for queries that carry no deadline (a leg for a
/// deadlined query waits at most its remaining slack).
const LEG_TIMEOUT: Duration = Duration::from_secs(30);

/// Router knobs. Defaults suit a local fleet; tests override freely.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Admission queue bound; arrivals beyond it are shed.
    pub queue_depth: usize,
    /// Orchestration workers — each drives one query's legs end to end,
    /// so this bounds the router's in-flight fan-outs.
    pub workers: usize,
    /// Where to serve `/metrics` and `/healthz`; `None` disables.
    pub metrics_addr: Option<String>,
    /// Instance name stamped as an `instance` label on every exported
    /// metrics family; empty means no label.
    pub instance: String,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self { queue_depth: 256, workers: 8, metrics_addr: None, instance: "router".to_string() }
    }
}

/// One admitted query waiting for (or being driven by) a worker.
type RouterJob = Job<QueryFrame>;

/// Why a shard leg ended without a usable partial result.
enum LegFail {
    /// The shard answered with a typed error, or the leg's list did not
    /// fit one frame — relay it (code intact, detail prefixed with the
    /// leg name) so the client sees the real cause.
    Relay(ErrorFrame),
    /// The leg failed at the transport (pool) layer.
    Transport(&'static str, PoolError),
    /// The shard replied with a frame type the leg cannot use.
    Unexpected(&'static str),
    /// The query's deadline passed before the leg could be sent.
    Expired(&'static str),
}

/// One request in flight to one shard; `R` is the request it carries,
/// hence (by the wire table's pairing) the reply it waits for.
struct Leg<R> {
    what: &'static str,
    flight: InFlight,
    request: PhantomData<R>,
}

/// A bound (but not yet running) shard router.
pub struct Router {
    map: ShardMap,
    edge: Edge,
    cfg: RouterConfig,
    pools: Vec<PoolClient>,
    total_objects: u64,
    stats: Arc<RouterStats>,
}

impl Router {
    /// Binds the router (and metrics) listener and fetches each shard's
    /// live-object count over a STATS round trip — the fleet-wide total
    /// is what clamps `k` exactly like a single engine over the union
    /// would. Fails if any shard is unreachable: a router that cannot
    /// see its fleet cannot promise union semantics.
    pub fn bind<A: ToSocketAddrs>(map: ShardMap, addr: A, cfg: RouterConfig) -> io::Result<Self> {
        let edge = Edge::bind(
            addr,
            EdgeConfig {
                queue_depth: cfg.queue_depth,
                metrics_addr: cfg.metrics_addr.clone(),
                instance: cfg.instance.clone(),
            },
        )?;
        let pools: Vec<PoolClient> =
            map.shards().iter().map(|s| PoolClient::new(s.addr.clone())).collect();
        let mut total_objects = 0u64;
        for s in map.shards() {
            let mut client = Client::connect_with_timeout(&s.addr[..], Duration::from_secs(10))
                .map_err(|e| other(format!("shard {}: {e}", s.addr)))?;
            let entries =
                client.fetch_stats().map_err(|e| other(format!("shard {} stats: {e}", s.addr)))?;
            let objects = entries
                .iter()
                .find(|(n, _)| n == "objects")
                .map(|&(_, v)| v)
                .ok_or_else(|| other(format!("shard {} reports no object count", s.addr)))?;
            total_objects += objects;
        }
        Ok(Self { map, edge, cfg, pools, total_objects, stats: Arc::default() })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.edge.local_addr()
    }

    /// The metrics endpoint's bound address, when one is configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.edge.metrics_addr()
    }

    /// Handle for shutting the router down from another thread.
    pub fn handle(&self) -> Handle {
        self.edge.handle()
    }

    /// The live counters (shared; updated while the router runs).
    pub fn stats(&self) -> Arc<RouterStats> {
        Arc::clone(&self.stats)
    }

    /// The shard map the router routes with.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Record per-query route/fanout/merge spans into a bounded ring,
    /// drained into the trace that [`run`](Self::run) returns.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.edge.enable_tracing(capacity);
    }

    /// Serves until [`Handle::shutdown`] is called, then drains (queued
    /// queries are answered, their shard legs run to completion) and
    /// returns the trace when tracing is enabled.
    pub fn run(&self) -> Option<QueryTrace> {
        self.edge.run(self)
    }

    /// Writes `frame` on the connection `job` arrived on.
    fn reply(&self, job: &RouterJob, frame: &Frame) -> bool {
        job.reply(&self.stats, frame)
    }

    /// A leg's wait budget: the query's remaining slack, capped at
    /// [`LEG_TIMEOUT`].
    fn remaining(&self, job: &RouterJob) -> Duration {
        match job.deadline {
            Some(d) => d.saturating_duration_since(Instant::now()).min(LEG_TIMEOUT),
            None => LEG_TIMEOUT,
        }
    }

    /// The `deadline_ms` a leg sent now carries: the query's remaining
    /// slack, not its original budget — the shard restarts the clock at
    /// arrival, so the original would hand it time the client has already
    /// spent. Rounded up to a whole millisecond so a live query never
    /// sends 0 ("no deadline"); with nothing left the leg is not sent at
    /// all, rather than ranked for a reply nobody will read.
    fn leg_deadline_ms(&self, job: &RouterJob, what: &'static str) -> Result<u32, LegFail> {
        let Some(deadline) = job.deadline else { return Ok(0) };
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(LegFail::Expired(what));
        }
        Ok(left.as_micros().div_ceil(1_000).min(u32::MAX as u128) as u32)
    }

    /// Starts a leg on `shard`: `make` builds the request around a fresh
    /// wire id and the deadline a leg sent now carries. A request whose
    /// list would not fit one frame is refused here, never sent cut.
    fn send<R: Request>(
        &self,
        job: &RouterJob,
        what: &'static str,
        shard: usize,
        make: impl FnOnce(u64, u32) -> R,
    ) -> Result<Leg<R>, LegFail> {
        let deadline_ms = self.leg_deadline_ms(job, what)?;
        let pool = &self.pools[shard];
        let req_id = pool.next_req_id();
        let frame: Frame = make(req_id, deadline_ms).into();
        let bytes = frame.encode_whole().map_err(|e| LegFail::Relay(prefixed(what, e)))?;
        match pool.begin(req_id, &bytes) {
            Ok(flight) => Ok(Leg { what, flight, request: PhantomData }),
            Err(e) => Err(LegFail::Transport(what, e)),
        }
    }

    /// Awaits a leg's reply as the type its request is answered with —
    /// the one place a shard's answer is sorted into usable, a typed
    /// error to relay, a frame the leg cannot use, or a transport failure.
    fn wait<R: Request>(&self, job: &RouterJob, leg: Leg<R>) -> Result<R::Reply, LegFail> {
        match leg.flight.wait(self.remaining(job)) {
            Ok(Frame::Error(e)) => Err(LegFail::Relay(prefixed(leg.what, e))),
            Ok(frame) => R::Reply::try_from(frame).map_err(|_| LegFail::Unexpected(leg.what)),
            Err(e) => Err(LegFail::Transport(leg.what, e)),
        }
    }

    /// [`send`](Self::send) + [`wait`](Self::wait): one round trip.
    fn leg<R: Request>(
        &self,
        job: &RouterJob,
        what: &'static str,
        shard: usize,
        make: impl FnOnce(u64, u32) -> R,
    ) -> Result<R::Reply, LegFail> {
        self.wait(job, self.send(job, what, shard, make)?)
    }

    /// Sends one leg to each of `shards`, then awaits the replies in that
    /// order — the legs run on the shards side by side.
    fn fan_out<R: Request>(
        &self,
        job: &RouterJob,
        what: &'static str,
        shards: impl IntoIterator<Item = usize>,
        make: impl Fn(u64, u32) -> R,
    ) -> Result<Vec<R::Reply>, LegFail> {
        let legs: Vec<Leg<R>> = shards
            .into_iter()
            .map(|shard| self.send(job, what, shard, &make))
            .collect::<Result<_, _>>()?;
        legs.into_iter().map(|leg| self.wait(job, leg)).collect()
    }

    /// Routes one query: a single home `QUERY` bounded by the home's open
    /// tile. The home answers in full when the query is interior and
    /// stops after step 2 when it is not — then the straddle plan runs.
    fn handle_query(&self, job: RouterJob, rec: &dyn Recorder) {
        let t_route = Instant::now();
        let q = job.payload.clone();
        let xy = Point2::new(q.x, q.y);
        let Some(home) = self.map.home(xy) else {
            job.refuse(&self.stats, ErrorCode::BadRequest, "query point outside the shard map");
            return;
        };
        self.stats.routed.inc();
        // Single-shard fleets, k = 0, and an empty fleet all reduce to
        // "the home answer is the union answer" with nothing to merge, so
        // the home answers them in full.
        let trivial = self.map.len() == 1 || q.k == 0 || self.total_objects == 0;
        let within = if trivial { Rect2::UNBOUNDED } else { self.map.open_tile(home) };
        let trace_id = job.trace_id;
        let home_leg = match self.send(&job, "home query", home, |req_id, deadline_ms| QueryFrame {
            req_id,
            deadline_ms,
            trace_id,
            within,
            ..q.clone()
        }) {
            Ok(leg) => leg,
            Err(fail) => return self.fail(&job, fail),
        };
        self.stats.route_us.record(t_route.elapsed().as_micros() as u64);
        if rec.enabled() {
            let fields = vec![
                field("dur_us", t_route.elapsed().as_micros() as u64),
                field("home", home as u64),
            ];
            rec.span("router_route", trace_id, fields);
        }
        match self.wait(&job, home_leg) {
            // A full answer means the home's step-2 circle stayed strictly
            // inside its tile and it holds at least k objects: no other
            // shard can own a candidate, so it is the union answer. A
            // stopped home replies with no neighbours instead.
            Ok(mut r) if trivial || r.neighbors.len() == q.k as usize => {
                self.stats.interior.inc();
                r.req_id = job.req_id;
                self.finish(&job, Frame::Response(r));
            }
            Ok(_) => match self.straddle(&job, home, &q, rec) {
                Ok(resp) => self.finish(&job, Frame::Response(resp)),
                Err(fail) => self.fail(&job, fail),
            },
            Err(fail) => self.fail(&job, fail),
        }
    }

    /// The decomposed plan for a boundary-straddling query.
    fn straddle(
        &self,
        job: &RouterJob,
        home: usize,
        q: &QueryFrame,
        rec: &dyn Recorder,
    ) -> Result<ResponseFrame, LegFail> {
        self.stats.fanned_out.inc();
        let t_fan = Instant::now();
        let xy = Point2::new(q.x, q.y);
        let (trace_id, tri, x, y, z, k) = (job.trace_id, q.tri, q.x, q.y, q.z, q.k);
        // Clamp k to the union population — exactly the clamp a single
        // engine applies against its own live count.
        let kc = (k as u64).min(self.total_objects) as usize;
        // Step 1: merge the per-shard canonical seed lists by (dist, id).
        // Each shard's list is its local top-k under that total order, so
        // the union's top-k is a subset of the concatenation and the sort
        // recovers it exactly.
        let mut seeds: Vec<(f64, WireObject)> = self
            .fan_out(job, "seeds leg", 0..self.pools.len(), |req_id, deadline_ms| {
                SeedsRequestFrame { req_id, trace_id, x, y, k, deadline_ms }
            })?
            .into_iter()
            .flat_map(|reply| reply.seeds)
            .collect();
        seeds.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.id.cmp(&b.1.id)));
        seeds.truncate(kc);
        let seed_objs: Vec<WireObject> = seeds.iter().map(|&(_, o)| o).collect();
        // Step 2 on the home shard: an EXEC over the merged seeds and no
        // candidates answers with the radius alone.
        let radius = self
            .leg(job, "radius leg", home, |req_id, deadline_ms| ExecRequestFrame {
                req_id,
                trace_id,
                tri,
                x,
                y,
                z,
                k: kc as u32,
                deadline_ms,
                seeds: seed_objs.clone(),
                cands: Vec::new(),
            })?
            .radius;
        // Step 3 fan-out. NaN sanitizes to ∞ — both mean "range
        // everything" to the engine, and RANGE rejects NaN on the wire.
        let radius = if radius.is_nan() { f64::INFINITY } else { radius };
        let mut cands: Vec<WireObject> = self
            .fan_out(job, "range leg", self.map.overlapping(xy, radius), |req_id, deadline_ms| {
                RangeRequestFrame { req_id, trace_id, x, y, radius, deadline_ms }
            })?
            .into_iter()
            .flat_map(|reply| reply.objects)
            .collect();
        // Ownership is a partition, so per-shard lists are disjoint and
        // their id-sorted concatenation is the union engine's candidate
        // list element for element.
        cands.sort_unstable_by_key(|o| o.id);
        self.stats.fanout_us.record(t_fan.elapsed().as_micros() as u64);
        if rec.enabled() {
            rec.span(
                "router_fanout",
                trace_id,
                vec![
                    field("dur_us", t_fan.elapsed().as_micros() as u64),
                    field("seeds", seed_objs.len() as u64),
                    field("cands", cands.len() as u64),
                ],
            );
        }
        // Steps 2+4, coupled, on the home shard over the merged lists.
        let t_merge = Instant::now();
        let mut resp = self.leg(job, "exec leg", home, |req_id, deadline_ms| ExecRequestFrame {
            req_id,
            trace_id,
            tri,
            x,
            y,
            z,
            k: kc as u32,
            deadline_ms,
            seeds: seed_objs,
            cands,
        })?;
        // Termination re-check over the k+1 ranked intervals, with the
        // same 1e-9 margin as the engine's own VA-file test
        // (`is_resolved`). Failing it is NOT a merge error — the union
        // engine reaches the identical terminal state when the schedule
        // ends before the runner-up separates — so the counter reads as
        // "merged answers whose top-k is not provably separated", a
        // resolution-quality signal. A router-*induced* violation cannot
        // occur while the merged lists are exact, which is what the e2e
        // bit-identity suite proves.
        if kc > 0
            && resp.neighbors.len() > kc
            && resp.neighbors[kc - 1].ub > resp.neighbors[kc].lb + 1e-9
        {
            self.stats.bound_violations.inc();
        }
        resp.neighbors.truncate(kc);
        resp.req_id = job.req_id;
        self.stats.merged.inc();
        self.stats.merge_us.record(t_merge.elapsed().as_micros() as u64);
        if rec.enabled() {
            rec.span(
                "router_merge",
                trace_id,
                vec![field("dur_us", t_merge.elapsed().as_micros() as u64), field("k", kc as u64)],
            );
        }
        Ok(resp)
    }

    /// Sends the final reply and records end-to-end latency.
    fn finish(&self, job: &RouterJob, frame: Frame) {
        self.stats.latency_us.record(job.enqueued.elapsed().as_micros() as u64);
        if self.reply(job, &frame) {
            self.stats.completed.inc();
        }
    }

    /// Answers a query whose legs could not produce a result.
    fn fail(&self, job: &RouterJob, fail: LegFail) {
        self.stats.leg_failures.inc();
        let frame = match fail {
            LegFail::Relay(mut e) => {
                e.req_id = job.req_id;
                Frame::Error(e)
            }
            LegFail::Transport(what, e) => {
                let code = match e {
                    PoolError::Timeout if job.deadline.is_some() => ErrorCode::DeadlineExpired,
                    _ => ErrorCode::Overloaded,
                };
                Frame::error(job.req_id, code, &format!("{what} failed: {e}"))
            }
            LegFail::Unexpected(what) => Frame::error(
                job.req_id,
                ErrorCode::Overloaded,
                &format!("{what}: unexpected shard reply"),
            ),
            LegFail::Expired(what) => Frame::error(
                job.req_id,
                ErrorCode::DeadlineExpired,
                &format!("{what}: deadline expired before the leg was sent"),
            ),
        };
        self.reply(job, &frame);
    }
}

impl Service for Router {
    type Payload = QueryFrame;
    const PREFIX: &'static str = "sknn_shard_";

    fn edge_stats(&self) -> &EdgeStats {
        &self.stats.edge
    }

    /// The router takes `QUERY` only; where the point lies is decided at
    /// routing time. A client's tile is not read: the router answers the
    /// whole query and bounds only its own home leg.
    fn claim(&self, frame: Frame) -> Option<Result<QueryFrame, &'static str>> {
        let Frame::Query(q) = frame else { return None };
        let finite = q.x.is_finite() && q.y.is_finite() && q.z.is_finite();
        Some(if finite { Ok(q) } else { Err("non-finite coordinates") })
    }

    /// The `objects` entry is the fleet-wide live-object count at bind
    /// time, mirroring the entry a single shard reports, so `loadgen
    /// --verify` clamps `k` identically against a router or a shard.
    fn stats_rows(&self, out: &mut Vec<(String, u64)>) {
        self.stats.stats_rows(out);
        out.push(("shards".to_string(), self.map.len() as u64));
        out.push(("objects".to_string(), self.total_objects));
    }

    fn register<'a>(&'a self, reg: &Registry<'a>) {
        self.stats.register_rows(reg, Self::PREFIX);
        reg.gauge_fn("sknn_shard_map_size", "Number of shards in the routing map", move || {
            self.map.len() as f64
        });
        reg.gauge_fn("sknn_shard_objects", "Fleet-wide live objects at bind time", move || {
            self.total_objects as f64
        });
    }

    fn workers(&self) -> usize {
        self.cfg.workers
    }

    /// Drives one query's shard legs end to end.
    fn serve(&self, job: RouterJob, rec: &dyn Recorder) {
        self.handle_query(job, rec);
    }
}

/// Prefixes a relayed shard error's detail with the leg that produced
/// it, keeping the code (and thus client retry semantics) intact.
fn prefixed(what: &str, mut e: ErrorFrame) -> ErrorFrame {
    e.detail = format!("{what}: {}", e.detail);
    e
}

fn other(msg: String) -> io::Error {
    io::Error::other(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::ShardSpec;
    use sknn_core::workload::SurfacePoint;
    use sknn_geom::{Point3, Rect2};
    use sknn_serve::protocol::{
        read_frame, write_frame, RangeFrame, SeedsFrame, ServerTiming, StatsFrame, MAX_PAYLOAD,
    };
    use std::net::TcpListener;

    /// A recording fake shard behind a one-worker router: it answers the
    /// bind-time `STATS`, then notes each `QUERY` leg's `deadline_ms` and
    /// sits on the first for `DELAY` (any reply will do — a typed error
    /// is relayed like an answer). The second query spends that long in
    /// the router queue, so its leg must carry that much less than the
    /// client's budget — not a fresh copy of it.
    #[test]
    fn legs_carry_the_remaining_slack_not_the_original_budget() {
        const BUDGET_MS: u32 = 5_000;
        const DELAY: Duration = Duration::from_millis(250);
        let port = TcpListener::bind("127.0.0.1:0").unwrap();
        let shard_addr = port.local_addr().unwrap().to_string();
        let (seen_tx, seen) = std::sync::mpsc::channel::<u32>();
        let shard = std::thread::spawn(move || {
            let (mut s, _) = port.accept().unwrap();
            assert!(matches!(read_frame(&mut s), Ok(Frame::StatsRequest)));
            let stats = StatsFrame { entries: vec![("objects".to_string(), 1)] };
            write_frame(&mut s, &Frame::Stats(stats)).unwrap();
            let (mut s, _) = port.accept().unwrap();
            for delay in [DELAY, Duration::ZERO] {
                let Ok(Frame::Query(q)) = read_frame(&mut s) else {
                    panic!("expected a QUERY leg")
                };
                seen_tx.send(q.deadline_ms).unwrap();
                std::thread::sleep(delay);
                let reply = Frame::error(q.req_id, ErrorCode::Overloaded, "fake shard");
                write_frame(&mut s, &reply).unwrap();
            }
        });
        let tile = Rect2::new(Point2::new(0.0, 0.0), Point2::new(100.0, 100.0));
        let map = ShardMap::new(vec![ShardSpec { tile, addr: shard_addr }]);
        let cfg = RouterConfig { workers: 1, ..RouterConfig::default() };
        let router = Router::bind(map, "127.0.0.1:0", cfg).unwrap();
        let handle = router.handle();
        std::thread::scope(|scope| {
            let run = scope.spawn(|| router.run());
            let mut client = Client::connect(handle.addr()).unwrap();
            let q = SurfacePoint { tri: 0, pos: Point3::new(50.0, 50.0, 0.0) };
            for req_id in [1, 2] {
                client.send_query(req_id, q, 1, BUDGET_MS).unwrap();
            }
            let replies = [client.recv(), client.recv()];
            handle.shutdown();
            run.join().unwrap();
            assert!(replies.iter().all(|r| matches!(r, Ok(Frame::Error(_)))), "{replies:?}");
        });
        shard.join().unwrap();
        let (first, second) = (seen.recv().unwrap(), seen.recv().unwrap());
        assert!((1..=BUDGET_MS).contains(&first), "first leg carried {first} ms");
        let ceiling = BUDGET_MS - DELAY.as_millis() as u32 + 50;
        assert!(second <= ceiling, "second leg carried {second} ms, ceiling {ceiling}");
    }

    /// Two fake shards on one listener, each holding one object: the home
    /// stops its `QUERY`, the radius `EXEC` (no candidates) answers, and
    /// `RANGE` comes back with as many objects as one frame holds — too
    /// many to ride an `EXEC` beside a seed. The client gets a typed
    /// `BadRequest` naming the list, and no ranking `EXEC` reaches a
    /// shard over a cut candidate list.
    #[test]
    fn a_list_too_long_for_its_frame_is_refused_not_cut() {
        let port = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = port.local_addr().unwrap().to_string();
        let (exec_tx, execs) = std::sync::mpsc::channel::<usize>();
        let obj = |id| WireObject { id, tri: 0, x: 25.0, y: 50.0, z: 0.0 };
        let full: Vec<WireObject> = (0..(MAX_PAYLOAD - 20) / 32).map(obj).collect();
        let response = |req_id, trace_id| {
            let (radius, timing) = (1.0, ServerTiming::default());
            Frame::Response(ResponseFrame {
                req_id,
                trace_id,
                radius,
                timing,
                degraded: None,
                neighbors: vec![],
            })
        };
        // Two bind-time STATS connections, then one pooled per shard.
        let fake = std::thread::spawn(move || {
            for conn in port.incoming().take(4) {
                let (mut s, full, exec_tx) = (conn.unwrap(), full.clone(), exec_tx.clone());
                std::thread::spawn(move || {
                    while let Ok(frame) = read_frame(&mut s) {
                        let reply = match frame {
                            Frame::StatsRequest => Frame::Stats(StatsFrame {
                                entries: vec![("objects".to_string(), 1)],
                            }),
                            Frame::Query(q) => response(q.req_id, q.trace_id),
                            Frame::SeedsRequest(r) => Frame::Seeds(SeedsFrame {
                                req_id: r.req_id,
                                trace_id: r.trace_id,
                                seeds: vec![(0.0, obj(0))],
                            }),
                            Frame::ExecRequest(e) => {
                                exec_tx.send(e.cands.len()).unwrap();
                                response(e.req_id, e.trace_id)
                            }
                            Frame::RangeRequest(r) => Frame::Range(RangeFrame {
                                req_id: r.req_id,
                                trace_id: r.trace_id,
                                objects: full.clone(),
                            }),
                            other => panic!("unexpected leg {other:?}"),
                        };
                        write_frame(&mut s, &reply).unwrap();
                    }
                });
            }
        });
        let half = |x0: f64| Rect2::new(Point2::new(x0, 0.0), Point2::new(x0 + 50.0, 100.0));
        let map = ShardMap::new(
            [half(0.0), half(50.0)].map(|tile| ShardSpec { tile, addr: addr.clone() }).to_vec(),
        );
        let router = Router::bind(map, "127.0.0.1:0", RouterConfig::default()).unwrap();
        let handle = router.handle();
        let reply = std::thread::scope(|scope| {
            let run = scope.spawn(|| router.run());
            let mut client = Client::connect(handle.addr()).unwrap();
            let q = SurfacePoint { tri: 0, pos: Point3::new(25.0, 50.0, 0.0) };
            client.send_query(1, q, 1, 0).unwrap();
            let reply = client.recv();
            handle.shutdown();
            run.join().unwrap();
            reply
        });
        fake.join().unwrap();
        match reply {
            Ok(Frame::Error(e)) => {
                assert_eq!((e.req_id, e.code), (1, ErrorCode::BadRequest), "{e:?}");
                assert_eq!(e.detail, "exec leg: cands list does not fit one frame");
            }
            other => panic!("expected a typed BadRequest, got {other:?}"),
        }
        let seen: Vec<usize> = execs.try_iter().collect();
        assert_eq!(seen, [0], "only the radius EXEC, over no candidates, may be sent");
    }
}
