//! The shard server: an [`Edge`] whose jobs are engine ops. The edge
//! owns the sockets, admission and drain (see [`crate::edge`]); this
//! module keeps what is the server's alone — validating request frames
//! against the mesh, the slow-query log, and the engine-side metric
//! families; answering a job is the `ops` module's one engine call.

use crate::edge::{Edge, EdgeConfig, EdgeStats, Handle, Job, Service};
use crate::ops::JobOp;
use crate::protocol::{Frame, WireObject, LOCATE_TRI};
use crate::slowlog::SlowQueryLog;
use crate::stats::ServeStats;
use sknn_core::mr3::Mr3Engine;
use sknn_core::workload::SurfacePoint;
use sknn_geom::{Point2, Rect2};
use sknn_obs::MetricKind::{Counter, Gauge};
use sknn_obs::{MetricKind, QueryTrace, Recorder, Registry};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// Serving knobs. The defaults suit an interactive service on a local
/// machine; the load generator and tests override freely.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission queue bound; arrivals beyond it are shed.
    pub queue_depth: usize,
    /// Requests executed concurrently: the worker threads, each running
    /// one request's engine call at a time.
    pub exec_threads: usize,
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
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_depth: 64,
            exec_threads: sknn_exec::available_threads(),
            metrics_addr: None,
            slow_threshold: Duration::from_millis(100),
            slow_capacity: 256,
            instance: String::new(),
        }
    }
}

/// A bound (but not yet running) sk-NN query server.
pub struct Server<'e, 's, 'm> {
    pub(crate) engine: &'e Mr3Engine<'s, 'm>,
    edge: Edge,
    cfg: ServeConfig,
    pub(crate) stats: Arc<ServeStats>,
    pub(crate) slow: SlowQueryLog,
}

type EngineRead = fn(&Mr3Engine<'_, '_>) -> f64;

/// The engine-side families a server exports: pager read, stall and
/// fault counters, the shared cut cache, and the live object count. One
/// row per family — name, kind, help, and how to read it off the engine
/// at scrape time. A server has no write frame, so the write path's
/// counters would only ever describe its genesis commit: durability is
/// the library's ([`sknn_core::objects`]), not the wire's.
#[rustfmt::skip]
const ENGINE_ROWS: &[(&str, MetricKind, &str, EngineRead)] = &[
    ("sknn_store_stall_us_total", Counter, "Cumulative pager stall wall time, microseconds",
        |e| (e.pager().stall_ns() / 1_000) as f64),
    ("sknn_store_logical_reads_total", Counter, "Page read requests, hit or miss",
        |e| e.pager().lifetime_stats().logical_reads as f64),
    ("sknn_store_physical_reads_total", Counter, "Pages fetched from disk, once per query each",
        |e| e.pager().lifetime_stats().physical_reads as f64),
    ("sknn_store_coalesced_misses_total", Counter, "Misses that did not pay their own stall",
        |e| e.pager().lifetime_concurrency_stats().coalesced_misses as f64),
    ("sknn_store_faults_injected_total", Counter, "Storage faults fired by the injector",
        |e| e.pager().fault_stats().injected as f64),
    ("sknn_store_fault_retries_total", Counter, "Read attempts beyond a read's first",
        |e| e.pager().fault_stats().retries as f64),
    ("sknn_store_fault_exhausted_total", Counter, "Reads that exhausted the retry budget",
        |e| e.pager().fault_stats().exhausted as f64),
    ("sknn_store_checksum_failures_total", Counter,
        "Checksum verification failures on physical reads",
        |e| e.pager().fault_stats().checksum_failures as f64),
    ("sknn_cutcache_hits_total", Counter,
        "Cut-cache units (front tiles, crossing lines) served from memory",
        |e| cut(e).hits as f64),
    ("sknn_cutcache_misses_total", Counter, "Cut-cache units loaded from storage",
        |e| cut(e).misses as f64),
    ("sknn_cutcache_singleflight_waits_total", Counter,
        "Cut-cache units waited for while another query loaded them",
        |e| cut(e).singleflight_waits as f64),
    ("sknn_cutcache_evictions_total", Counter,
        "Resident units evicted to stay within the weight budget",
        |e| cut(e).evictions as f64),
    ("sknn_cutcache_failed_loads_total", Counter,
        "Unit loads that failed without publishing anything",
        |e| cut(e).failed_loads as f64),
    ("sknn_cutcache_warm_entries", Gauge, "Resident units marked warm (recently used)",
        |e| cut(e).warm_entries as f64),
    ("sknn_cutcache_cooling_entries", Gauge, "Resident units cooled by the CLOCK hand",
        |e| cut(e).cooling_entries as f64),
    ("sknn_cutcache_resident_bytes", Gauge, "Approximate bytes of resident unit data",
        |e| cut(e).resident_bytes as f64),
    ("sknn_cutcache_extractions_in_flight", Gauge, "Unit loads running right now",
        |e| cut(e).in_flight as f64),
    ("sknn_cutcache_hit_rate", Gauge, "Lifetime hits / (hits + misses) of the cut cache",
        |e| cut(e).hit_rate()),
    ("sknn_objects_live", Gauge, "Live objects in the current snapshot",
        |e| e.write_stats().live_objects as f64),
];

fn cut(engine: &Mr3Engine<'_, '_>) -> sknn_core::mr3::CutCacheSnapshot {
    engine.cut_cache_snapshot().unwrap_or_default()
}

impl<'e, 's, 'm> Server<'e, 's, 'm> {
    /// Binds the listener (and the metrics listener, when configured).
    /// Pass port 0 for an ephemeral port (tests).
    pub fn bind<A: ToSocketAddrs>(
        engine: &'e Mr3Engine<'s, 'm>,
        addr: A,
        cfg: ServeConfig,
    ) -> io::Result<Self> {
        let edge = Edge::bind(
            addr,
            EdgeConfig {
                queue_depth: cfg.queue_depth,
                metrics_addr: cfg.metrics_addr.clone(),
                instance: cfg.instance.clone(),
            },
        )?;
        let slow = SlowQueryLog::new(cfg.slow_threshold.as_micros() as u64, cfg.slow_capacity);
        Ok(Self { engine, edge, cfg, stats: Arc::default(), slow })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.edge.local_addr()
    }

    /// The metrics endpoint's bound address, when one is configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.edge.metrics_addr()
    }

    /// Handle for shutting the server down from another thread.
    pub fn handle(&self) -> Handle {
        self.edge.handle()
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

    /// Record per-request spans into a bounded ring, drained into the
    /// trace that [`run`](Self::run) returns.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.edge.enable_tracing(capacity);
    }

    /// Serves until [`Handle::shutdown`] is called, then drains and
    /// returns the final observability trace (when tracing is enabled).
    pub fn run(&self) -> Option<QueryTrace> {
        self.edge.run(self)
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

impl Service for Server<'_, '_, '_> {
    type Payload = JobOp;
    const PREFIX: &'static str = "sknn_serve_";

    fn edge_stats(&self) -> &EdgeStats {
        &self.stats.edge
    }

    /// Every request frame a shard takes — the full query and the three
    /// decomposed shard ops — validated against the mesh.
    fn claim(&self, frame: Frame) -> Option<Result<JobOp, &'static str>> {
        let finite = |x: f64, y: f64| x.is_finite() && y.is_finite();
        let nan = |w: Rect2| [w.lo.x, w.lo.y, w.hi.x, w.hi.y].iter().any(|b| b.is_nan());
        Some(match frame {
            Frame::Query(q) if nan(q.within) => Err("NaN tile bound"),
            Frame::Query(q) => self
                .resolve_surface(q.tri, q.x, q.y, q.z)
                .map(|point| JobOp::Query { point, k: q.k as usize, within: q.within }),
            Frame::SeedsRequest(s) => {
                if finite(s.x, s.y) {
                    Ok(JobOp::Seeds { xy: Point2::new(s.x, s.y), k: s.k as usize })
                } else {
                    Err("non-finite coordinates")
                }
            }
            Frame::RangeRequest(r) => {
                if finite(r.x, r.y) && r.radius >= 0.0 {
                    Ok(JobOp::Range { xy: Point2::new(r.x, r.y), radius: r.radius })
                } else {
                    Err("bad range parameters")
                }
            }
            Frame::ExecRequest(e) => self.resolve_surface(e.tri, e.x, e.y, e.z).and_then(|point| {
                Ok(JobOp::Exec {
                    point,
                    k: e.k as usize,
                    seeds: self.resolve_objs(&e.seeds)?,
                    cands: self.resolve_objs(&e.cands)?,
                })
            }),
            _ => return None,
        })
    }

    fn accepted(&self) {
        self.stats.accepted.inc();
    }

    fn stats_rows(&self, out: &mut Vec<(String, u64)>) {
        let stats = &self.stats;
        stats.stats_rows(out);
        stats.kernel.stats_rows(out);
        out.push(("queue_p50_us".to_string(), stats.queue_us.quantile(0.5).unwrap_or(0)));
        out.push(("queue_us_n".to_string(), stats.queue_us.count()));
        // Live object count: the sharding router sums these to clamp `k`
        // exactly like a single engine over the union terrain would.
        out.push(("objects".to_string(), self.engine.write_stats().live_objects as u64));
    }

    fn trace_dump(&self) -> String {
        self.slow.to_jsonl()
    }

    fn register<'a>(&'a self, reg: &Registry<'a>) {
        self.stats.register_rows(reg, Self::PREFIX);
        self.stats.kernel.register_rows(reg, "sknn_");
        let engine = self.engine;
        for &(name, kind, help, read) in ENGINE_ROWS {
            reg.value_fn(name, help, kind, move || read(engine));
        }
    }

    fn workers(&self) -> usize {
        self.cfg.exec_threads
    }

    fn expired(&self, job: &Job<JobOp>) {
        self.capture_expired(job);
    }

    fn serve(&self, job: Job<JobOp>, rec: &dyn Recorder) {
        self.serve_op(job, rec);
    }
}
