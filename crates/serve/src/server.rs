//! The TCP front end: accept loop, per-connection readers, admission
//! control, and graceful drain.
//!
//! Threading model (all scoped, no detached threads):
//!
//! ```text
//! run()
//!  ├─ dispatcher thread      — crate::batch::dispatch_loop
//!  ├─ accept loop (run itself) — nonblocking accept + shutdown poll
//!  └─ one reader thread per connection
//! ```
//!
//! Admission is the bounded deadline-aware [`crate::lanes`] queue: a
//! reader `try_push`es each request, and a full queue means an immediate
//! typed `Overloaded` reply — load shedding is a fast "no", never a hang
//! or an unbounded buffer. Queued requests can be withdrawn by a `CANCEL`
//! frame before dispatch.
//!
//! Graceful drain is ordering, not machinery: setting the shutdown flag
//! stops the accept loop and makes every reader exit at its next frame
//! boundary (rejecting frames that slip in mid-read with a typed
//! `ShuttingDown`). Closing the lanes refuses new pushes while the
//! dispatcher drains everything still queued. Admitted requests are
//! therefore answered, new ones refused, and `run` returns when the last
//! reply is written.

use crate::batch::{dispatch_loop, BatchPolicy, Job, JobOp};
use crate::conn::{read_frame_interruptible, ConnWriter, ReadOutcome};
use crate::lanes::{Lanes, PushError};
use crate::metrics_http::{bind_metrics, metrics_loop};
use crate::protocol::{ErrorCode, Frame, TraceDumpFrame, WireObject, LOCATE_TRI};
use crate::slowlog::SlowQueryLog;
use crate::stats::ServeStats;
use sknn_core::mr3::Mr3Engine;
use sknn_core::workload::SurfacePoint;
use sknn_geom::Point2;
use sknn_obs::{mint_trace_id, QueryTrace, Recorder, Registry, RingRecorder, NOOP};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the metrics endpoint keeps answering `/healthz` as draining
/// after the drain itself completes (see the lame-duck note in `run`).
const METRICS_DRAIN_GRACE: Duration = Duration::from_millis(250);

/// Serving knobs. The defaults suit an interactive service on a local
/// machine; the load generator and tests override freely.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Most requests coalesced into one engine batch.
    pub max_batch: usize,
    /// How long the dispatcher lingers for more work after the first
    /// request of a batch arrives.
    pub max_wait: Duration,
    /// Admission queue bound; arrivals beyond it are shed.
    pub queue_depth: usize,
    /// Threads each batch's engine calls are spread over.
    pub exec_threads: usize,
    /// Socket read timeout — the granularity at which blocked readers
    /// notice the shutdown flag.
    pub poll_interval: Duration,
    /// Where to serve `/metrics` and `/healthz` (e.g. `"127.0.0.1:0"`);
    /// `None` disables the endpoint.
    pub metrics_addr: Option<String>,
    /// Slow-query capture threshold: a successful request slower than
    /// this lands in the slow-query log. Failures (expired, degraded,
    /// errored) are captured regardless.
    pub slow_threshold: Duration,
    /// Bound on the slow-query reservoir; oldest entries evicted first.
    pub slow_capacity: usize,
    /// Instance name stamped as an `instance` label on every exported
    /// metrics family (shard id or `"router"` in a fleet); empty means
    /// no label (single-process deployments keep their old schema).
    pub instance: String,
    /// Starvation floor of the EDF admission lanes: once the oldest
    /// queued request has waited this long, it is dispatched next
    /// regardless of deadlines. Zero disables the floor (pure EDF).
    pub starvation_floor: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 16,
            max_wait: Duration::from_millis(1),
            queue_depth: 64,
            exec_threads: sknn_exec::available_threads(),
            poll_interval: Duration::from_millis(20),
            metrics_addr: None,
            slow_threshold: Duration::from_millis(100),
            slow_capacity: 256,
            instance: String::new(),
            starvation_floor: Duration::from_millis(50),
        }
    }
}

/// Remote handle on a running server: its address and a shutdown switch.
/// Clonable across threads; `shutdown` is idempotent.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
}

impl ServerHandle {
    /// The server's bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begins graceful drain: stop accepting, answer what was admitted,
    /// then return from [`Server::run`].
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }
}

/// A bound (but not yet running) sk-NN query server.
pub struct Server<'e, 's, 'm> {
    engine: &'e Mr3Engine<'s, 'm>,
    listener: TcpListener,
    cfg: ServeConfig,
    stats: Arc<ServeStats>,
    shutdown: Arc<AtomicBool>,
    ring: Option<RingRecorder>,
    slow: SlowQueryLog,
    metrics: Option<TcpListener>,
    metrics_addr: Option<SocketAddr>,
}

impl<'e, 's, 'm> Server<'e, 's, 'm> {
    /// Binds the listener (and the metrics listener, when configured).
    /// Pass port 0 for an ephemeral port (tests).
    pub fn bind<A: ToSocketAddrs>(
        engine: &'e Mr3Engine<'s, 'm>,
        addr: A,
        cfg: ServeConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let (metrics, metrics_addr) = match &cfg.metrics_addr {
            Some(addr) => {
                let (l, a) = bind_metrics(addr)?;
                (Some(l), Some(a))
            }
            None => (None, None),
        };
        let slow = SlowQueryLog::new(cfg.slow_threshold.as_micros() as u64, cfg.slow_capacity);
        Ok(Self {
            engine,
            listener,
            cfg,
            stats: Arc::new(ServeStats::new()),
            shutdown: Arc::new(AtomicBool::new(false)),
            ring: None,
            slow,
            metrics,
            metrics_addr,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has an address")
    }

    /// The metrics endpoint's bound address, when one is configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Handle for shutting the server down from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { addr: self.local_addr(), shutdown: Arc::clone(&self.shutdown) }
    }

    /// The live counters (shared; updated while the server runs).
    pub fn stats(&self) -> Arc<ServeStats> {
        Arc::clone(&self.stats)
    }

    /// The slow-query reservoir (readable at any time; the drain dump in
    /// the binary reads it after [`run`](Self::run) returns).
    pub fn slow_log(&self) -> &SlowQueryLog {
        &self.slow
    }

    /// Record per-request spans and per-batch events into a bounded ring,
    /// drained into the trace that [`run`](Self::run) returns.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.ring = Some(RingRecorder::new(capacity));
    }

    /// Builds the metrics registry: serving counters and histograms, the
    /// pager's pool/stall counters, and the fault-injection counters.
    fn build_registry(&self) -> Registry<'_> {
        let registry = if self.cfg.instance.is_empty() {
            Registry::new()
        } else {
            Registry::with_instance(&self.cfg.instance)
        };
        self.stats.register_into(&registry);
        let pager = self.engine.pager();
        registry.counter_fn(
            "sknn_store_stall_us_total",
            "Cumulative pager stall wall time, microseconds",
            move || pager.stall_ns() / 1_000,
        );
        registry.counter_fn(
            "sknn_store_logical_reads_total",
            "Page read requests, hit or miss",
            move || pager.lifetime_stats().logical_reads,
        );
        registry.counter_fn(
            "sknn_store_physical_reads_total",
            "Buffer-pool misses fetched from disk",
            move || pager.lifetime_stats().physical_reads,
        );
        registry.counter_fn(
            "sknn_store_singleflight_waits_total",
            "Threads that waited on another's in-flight read",
            move || pager.lifetime_concurrency_stats().singleflight_waits,
        );
        registry.counter_fn(
            "sknn_store_coalesced_misses_total",
            "Misses that did not pay their own stall",
            move || pager.lifetime_concurrency_stats().coalesced_misses,
        );
        registry.counter_fn(
            "sknn_store_shard_contention_total",
            "Shard-lock acquisitions that found the lock held",
            move || pager.lifetime_concurrency_stats().shard_contention,
        );
        registry.counter_fn(
            "sknn_store_faults_injected_total",
            "Storage faults fired by the injector",
            move || pager.fault_stats().injected,
        );
        registry.counter_fn(
            "sknn_store_fault_retries_total",
            "Read attempts beyond a read's first",
            move || pager.fault_stats().retries,
        );
        registry.counter_fn(
            "sknn_store_fault_exhausted_total",
            "Reads that exhausted the retry budget",
            move || pager.fault_stats().exhausted,
        );
        registry.counter_fn(
            "sknn_store_checksum_failures_total",
            "Checksum verification failures on physical reads",
            move || pager.fault_stats().checksum_failures,
        );
        // Shared cut cache.
        let engine = self.engine;
        let cut = move || engine.cut_cache_snapshot().unwrap_or_default();
        registry.counter_fn(
            "sknn_cutcache_hits_total",
            "Cut-cache units (front tiles, crossing lines) served from memory",
            move || cut().hits,
        );
        registry.counter_fn(
            "sknn_cutcache_misses_total",
            "Cut-cache units loaded from storage",
            move || cut().misses,
        );
        registry.counter_fn(
            "sknn_cutcache_singleflight_waits_total",
            "Cut-cache units waited for while another query loaded them",
            move || cut().singleflight_waits,
        );
        registry.counter_fn(
            "sknn_cutcache_evictions_total",
            "Resident units evicted to stay within the weight budget",
            move || cut().evictions,
        );
        registry.counter_fn(
            "sknn_cutcache_failed_loads_total",
            "Unit loads that failed without publishing anything",
            move || cut().failed_loads,
        );
        registry.gauge_fn(
            "sknn_cutcache_warm_entries",
            "Resident units marked warm (recently used)",
            move || cut().warm_entries as f64,
        );
        registry.gauge_fn(
            "sknn_cutcache_cooling_entries",
            "Resident units cooled by the CLOCK hand",
            move || cut().cooling_entries as f64,
        );
        registry.gauge_fn(
            "sknn_cutcache_resident_bytes",
            "Approximate bytes of resident unit data",
            move || cut().resident_bytes as f64,
        );
        registry.gauge_fn(
            "sknn_cutcache_extractions_in_flight",
            "Unit loads running right now",
            move || cut().in_flight as f64,
        );
        registry.gauge_fn(
            "sknn_cutcache_hit_rate",
            "Lifetime hits / (hits + misses) of the cut cache",
            move || cut().hit_rate(),
        );
        // Write path: WAL, writeback and recovery counters.
        let wal = move || engine.write_stats();
        registry.counter_fn(
            "sknn_wal_appends_total",
            "WAL records appended (pending or durable)",
            move || wal().wal.appends,
        );
        registry.counter_fn(
            "sknn_wal_fsyncs_total",
            "Successful WAL fsyncs (one per committed mutation)",
            move || wal().wal.fsyncs,
        );
        registry.counter_fn(
            "sknn_wal_failed_fsyncs_total",
            "WAL fsyncs failed by the fault injector (aborted commits)",
            move || wal().wal.failed_fsyncs,
        );
        registry.counter_fn(
            "sknn_wal_truncated_records_total",
            "Pending WAL records withdrawn by aborted mutations",
            move || wal().wal.truncated,
        );
        registry.counter_fn(
            "sknn_wal_flushed_pages_total",
            "Dirty pages written back to the durable image",
            move || wal().flushed_pages,
        );
        registry.counter_fn(
            "sknn_wal_aborted_ops_total",
            "Mutations aborted by a failed commit fsync",
            move || wal().aborted_ops,
        );
        registry.counter_fn(
            "sknn_wal_recoveries_total",
            "Times the object store was rebuilt from a crash image",
            move || wal().recoveries,
        );
        registry.counter_fn(
            "sknn_wal_replay_records_total",
            "Committed WAL records redone by the last recovery",
            move || wal().replay_records,
        );
        registry.gauge_fn(
            "sknn_wal_dirty_pages",
            "Pages currently dirty (awaiting writeback)",
            move || wal().dirty_pages as f64,
        );
        registry.gauge_fn("sknn_objects_live", "Live objects in the current snapshot", move || {
            wal().live_objects as f64
        });
        registry
    }

    /// Serves until [`ServerHandle::shutdown`] is called, then drains and
    /// returns the final observability trace (when tracing is enabled).
    pub fn run(&self) -> Option<QueryTrace> {
        self.listener.set_nonblocking(true).expect("listener nonblocking");
        let rec: &dyn Recorder = match &self.ring {
            Some(ring) => ring,
            None => &NOOP,
        };
        let policy = BatchPolicy {
            max_batch: self.cfg.max_batch.max(1),
            max_wait: self.cfg.max_wait,
            exec_threads: self.cfg.exec_threads.max(1),
        };
        let registry = self.build_registry();
        let metrics_stop = AtomicBool::new(false);
        let lanes = Lanes::new(self.cfg.queue_depth.max(1), self.cfg.starvation_floor);
        std::thread::scope(|scope| {
            let lanes = &lanes;
            let dispatcher = scope.spawn(move || {
                dispatch_loop(self.engine, lanes, policy, &self.stats, &self.slow, rec)
            });
            if let Some(listener) = &self.metrics {
                let registry = &registry;
                let draining = &*self.shutdown;
                let stop = &metrics_stop;
                scope.spawn(move || metrics_loop(listener, registry, draining, stop));
            }
            while !self.shutdown.load(Ordering::Relaxed) {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        self.stats.connections.inc();
                        scope.spawn(move || self.serve_conn(stream, lanes));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
            // Closing the lanes starts the drain clock: queued jobs keep
            // draining, new pushes are refused with a typed
            // `ShuttingDown`, and the dispatcher exits once the lanes
            // run dry. The metrics endpoint keeps answering `/healthz`
            // as "draining" for the whole window and stops only after
            // the last reply is written.
            lanes.close();
            let _ = dispatcher.join();
            // Lame-duck grace: even an instant drain keeps `/healthz`
            // answering 503 briefly, so pollers observe the state
            // transition instead of a vanished endpoint.
            if self.metrics.is_some() {
                std::thread::sleep(METRICS_DRAIN_GRACE);
            }
            metrics_stop.store(true, Ordering::Relaxed);
        });
        if rec.enabled() {
            rec.event(
                "serve_final",
                0,
                vec![
                    sknn_obs::field("accepted", self.stats.accepted.get()),
                    sknn_obs::field("completed", self.stats.completed.get()),
                    sknn_obs::field("shed", self.stats.shed.get()),
                ],
            );
        }
        self.ring.as_ref().map(|r| r.drain())
    }

    /// Reader thread for one connection.
    fn serve_conn(&self, stream: TcpStream, lanes: &Lanes<Job>) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(self.cfg.poll_interval));
        let writer = match stream.try_clone() {
            Ok(w) => Arc::new(ConnWriter::new(w)),
            Err(_) => return,
        };
        let reply = |frame: &Frame| writer.send(&self.stats.write_errors, frame);
        let bad_request = |req_id, why| reply(&Frame::error(req_id, ErrorCode::BadRequest, why));
        let mut stream = stream;
        loop {
            match read_frame_interruptible(&mut stream, &self.shutdown) {
                ReadOutcome::Frame(Frame::Query(q)) => {
                    match self.resolve_surface(q.tri, q.x, q.y, q.z) {
                        Ok(point) => {
                            let op = JobOp::Query { point, k: q.k as usize };
                            self.admit(q.req_id, q.trace_id, q.deadline_ms, op, lanes, &writer);
                        }
                        Err(why) => {
                            bad_request(q.req_id, why);
                        }
                    }
                }
                ReadOutcome::Frame(Frame::SeedsRequest(s)) => {
                    if !(s.x.is_finite() && s.y.is_finite()) {
                        bad_request(s.req_id, "non-finite coordinates");
                        continue;
                    }
                    let op = JobOp::Seeds { xy: Point2::new(s.x, s.y), k: s.k as usize };
                    self.admit(s.req_id, s.trace_id, s.deadline_ms, op, lanes, &writer);
                }
                ReadOutcome::Frame(Frame::RangeRequest(r)) => {
                    if !(r.x.is_finite() && r.y.is_finite()) || r.radius.is_nan() || r.radius < 0.0
                    {
                        bad_request(r.req_id, "bad range parameters");
                        continue;
                    }
                    let op = JobOp::Range { xy: Point2::new(r.x, r.y), radius: r.radius };
                    self.admit(r.req_id, r.trace_id, r.deadline_ms, op, lanes, &writer);
                }
                ReadOutcome::Frame(Frame::RadiusRequest(r)) => {
                    let op = self.resolve_surface(r.tri, r.x, r.y, r.z).and_then(|point| {
                        Ok(JobOp::Radius { point, seeds: self.resolve_objs(&r.seeds)? })
                    });
                    match op {
                        Ok(op) => {
                            self.admit(r.req_id, r.trace_id, r.deadline_ms, op, lanes, &writer)
                        }
                        Err(why) => {
                            bad_request(r.req_id, why);
                        }
                    }
                }
                ReadOutcome::Frame(Frame::ExecRequest(e)) => {
                    let op = self.resolve_surface(e.tri, e.x, e.y, e.z).and_then(|point| {
                        Ok(JobOp::Exec {
                            point,
                            k: e.k as usize,
                            seeds: self.resolve_objs(&e.seeds)?,
                            cands: self.resolve_objs(&e.cands)?,
                        })
                    });
                    match op {
                        Ok(op) => {
                            self.admit(e.req_id, e.trace_id, e.deadline_ms, op, lanes, &writer)
                        }
                        Err(why) => {
                            bad_request(e.req_id, why);
                        }
                    }
                }
                ReadOutcome::Frame(Frame::Cancel(c)) => {
                    // Withdraw the queued job if the cancel wins the race.
                    // The typed `Cancelled` reply goes to the *cancelled
                    // request's* connection (its own writer) so every
                    // admitted request still gets exactly one reply on
                    // its own stream. A miss means the job is already
                    // executing (or finished); its real reply is coming,
                    // so a cancel is silent here.
                    match lanes.cancel(c.req_id, c.trace_id) {
                        Some(job) => {
                            self.stats.cancelled.inc();
                            self.stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
                            job.writer.send(
                                &self.stats.write_errors,
                                &Frame::error(
                                    job.req_id,
                                    ErrorCode::Cancelled,
                                    "cancelled while queued",
                                ),
                            );
                        }
                        None => {
                            self.stats.cancel_misses.inc();
                        }
                    }
                }
                ReadOutcome::Frame(Frame::StatsRequest) => {
                    let mut snap = self.stats.snapshot();
                    // Live object count: the sharding router sums these
                    // to clamp `k` exactly like a single engine over the
                    // union terrain would.
                    snap.entries.push((
                        "objects".to_string(),
                        self.engine.write_stats().live_objects as u64,
                    ));
                    reply(&Frame::Stats(snap));
                }
                ReadOutcome::Frame(Frame::TraceDumpRequest) => {
                    reply(&Frame::TraceDump(TraceDumpFrame { jsonl: self.slow.to_jsonl() }));
                }
                ReadOutcome::Frame(_) => {
                    // Response/Error/Stats/TraceDump only flow server → client.
                    self.stats.protocol_errors.inc();
                    bad_request(0, "unexpected frame type");
                }
                ReadOutcome::Protocol(e) => {
                    // A framing error (a foreign protocol version
                    // included) means the stream position is no longer
                    // trustworthy; reply once and hang up.
                    self.stats.protocol_errors.inc();
                    bad_request(0, &e.to_string());
                    return;
                }
                ReadOutcome::Closed | ReadOutcome::Io | ReadOutcome::Shutdown => return,
            }
        }
    }

    /// Offers a validated operation to the admission lanes, replying with
    /// the right typed error when it cannot be queued.
    fn admit(
        &self,
        req_id: u64,
        raw_trace_id: u64,
        deadline_ms: u32,
        op: JobOp,
        lanes: &Lanes<Job>,
        writer: &Arc<ConnWriter>,
    ) {
        let refuse = |writer: &ConnWriter, code, why| {
            writer.send(&self.stats.write_errors, &Frame::error(req_id, code, why));
        };
        if self.shutdown.load(Ordering::Relaxed) {
            self.stats.rejected_shutdown.inc();
            refuse(writer, ErrorCode::ShuttingDown, "server is draining");
            return;
        }
        let enqueued = Instant::now();
        let deadline = match deadline_ms {
            0 => None,
            ms => Some(enqueued + Duration::from_millis(ms as u64)),
        };
        // Every admitted request has a nonzero trace id from here on:
        // the client's, or one minted now. It becomes the engine's query
        // id, so each obs record this request produces carries it even
        // when the request rides a batch with strangers.
        let trace_id = if raw_trace_id != 0 { raw_trace_id } else { mint_trace_id() };
        let job = Job {
            req_id,
            trace_id,
            op,
            deadline,
            enqueued,
            recv_at: enqueued,
            writer: Arc::clone(writer),
        };
        match lanes.try_push(job) {
            Ok(()) => {
                self.stats.accepted.inc();
                self.stats.queue_depth.fetch_add(1, Ordering::Relaxed);
            }
            Err(PushError::Full) => {
                self.stats.shed.inc();
                refuse(writer, ErrorCode::Overloaded, "admission queue full");
            }
            Err(PushError::Closed) => {
                self.stats.rejected_shutdown.inc();
                refuse(writer, ErrorCode::ShuttingDown, "server is draining");
            }
        }
    }

    /// Lifts wire coordinates onto the surface: either trust the client's
    /// facet id (validated against the mesh) or locate the facet from the
    /// plan position.
    fn resolve_surface(
        &self,
        tri: u32,
        x: f64,
        y: f64,
        z: f64,
    ) -> Result<SurfacePoint, &'static str> {
        if !(x.is_finite() && y.is_finite() && z.is_finite()) {
            return Err("non-finite query coordinates");
        }
        let scene = self.engine.scene();
        if tri == LOCATE_TRI {
            scene.surface_point(Point2::new(x, y)).ok_or("query point outside the terrain extent")
        } else if (tri as usize) < scene.mesh().num_triangles() {
            Ok(SurfacePoint { tri, pos: sknn_geom::Point3::new(x, y, z) })
        } else {
            Err("facet id out of range")
        }
    }

    /// Validates a shipped object list (shard-op frames) and lifts it to
    /// surface points. Objects may be owned by *other* shards, so only
    /// mesh-level validity is checked — the ids are taken on faith, which
    /// is sound because every shard ranks with the coordinates provided
    /// on the wire, not a local lookup.
    fn resolve_objs(&self, objs: &[WireObject]) -> Result<Vec<(u32, SurfacePoint)>, &'static str> {
        let num_tris = self.engine.scene().mesh().num_triangles();
        let mut out = Vec::with_capacity(objs.len());
        for o in objs {
            if !(o.x.is_finite() && o.y.is_finite() && o.z.is_finite()) {
                return Err("non-finite object coordinates");
            }
            if o.tri as usize >= num_tris {
                return Err("object facet id out of range");
            }
            out.push((
                o.id,
                SurfacePoint { tri: o.tri, pos: sknn_geom::Point3::new(o.x, o.y, o.z) },
            ));
        }
        Ok(out)
    }
}
