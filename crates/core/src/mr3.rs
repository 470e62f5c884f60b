//! Algorithm MR3 — Multi-Resolution Range Ranking (paper §4.1).
//!
//! ```text
//! 1. 2D k-NN Query      : seeds C1 from the Dxy R-tree
//! 2. Surface Ranking    : tighten the seeds' upper bounds -> radius ub(q,b)
//! 3. 2D Range Query     : C2 = objects within the radius (planar circle)
//! 4. Surface Ranking    : rank C2 until ub(p_k) <= lb(p_{k+1})
//! ```
//!
//! Correctness (paper): any object outside `C2` has Euclidean — hence
//! surface — distance beyond `ub(q, b)`, and k objects are already known
//! to be within that bound.

use crate::config::Mr3Config;
use crate::metrics::{CpuTimer, Neighbor, QueryResult, QueryStats, StageTimes};
use crate::objects::{ObjectSnapshot, ObjectStore, WriteStats};
use crate::ranking::{Candidate, RankScratch, RankingContext};
use crate::resilience::{FaultLog, QueryError, FAULT_BUDGET};
use crate::workload::{Scene, SurfacePoint};
use sknn_geom::Rect2;
use sknn_multires::{CutCache, CutGrid, DmtmTree, UnitStore};
use sknn_obs::{field, QueryTrace, Recorder, RingRecorder, NOOP};
use sknn_sdn::{LineCutCache, PagedMsdn};
use sknn_store::{Pager, StructureTag};
use sknn_terrain::mesh::TerrainMesh;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Ring capacity of one traced query: comfortably holds its spans,
/// iteration events and I/O roll-up.
const TRACE_RING_CAPACITY: usize = 4096;

/// The MR3 surface k-NN query engine.
///
/// The engine is `Sync`: every query-path structure is either immutable
/// (mesh, scene, DMTM, MSDN) or internally synchronised (the [`Pager`]
/// with its per-thread windows, the cut caches, atomic counters), so
/// independent queries may run concurrently through `&self` — see
/// [`try_query_batch`](Self::try_query_batch). Query *results* depend only on the immutable
/// structures. Cost counters are exact per query under concurrency too,
/// each query reading the stats windows its own thread opened; what a
/// query counts still depends on scheduling, because the cut caches are
/// shared. Each traced query records into a ring of its own.
pub struct Mr3Engine<'s, 'm> {
    mesh: &'m TerrainMesh,
    scene: &'s Scene<'m>,
    /// The dynamic object set: a durable WAL behind copy-on-write
    /// snapshots. Queries pin one snapshot for their whole run, so
    /// concurrent mutations never shift the ground mid-ranking.
    objects: ObjectStore,
    /// The DMTM's resident metadata; its data is on pages as the cut
    /// cache's units.
    tree: DmtmTree,
    msdn: PagedMsdn,
    pager: Pager,
    cfg: Mr3Config,
    /// Whether queries record a trace (off: the no-op recorder, no
    /// overhead).
    tracing: bool,
    /// Fetch-region canonicalizer shared by every query context (see
    /// [`CutCacheConfig`](crate::config::CutCacheConfig)).
    cut_grid: CutGrid,
    /// Shared process-wide DMTM front cache, over the unit store of the
    /// schedule's steps.
    cut_cache: CutCache,
    /// Shared process-wide MSDN line cache.
    line_cache: LineCutCache,
    /// Recycled per-query ranking scratches, returned by each query's
    /// ranking context when it drops.
    scratch_pool: Mutex<Vec<RankScratch>>,
    /// Query sequence number stamped on trace records.
    query_seq: AtomicU64,
    /// Empty the shared cut caches before each query (cold-cache
    /// measurement, the regime of the paper's figures). The pager needs no
    /// clearing: every query opens an empty window.
    pub cold_cache: bool,
}

impl<'s, 'm> Mr3Engine<'s, 'm> {
    /// Build the engine: constructs the DMTM and MSDN of the scene's mesh
    /// and lays them out on the simulated disk.
    pub fn build(mesh: &'m TerrainMesh, scene: &'s Scene<'m>, cfg: &Mr3Config) -> Self {
        Self::build_from(mesh, scene, cfg, crate::persist::Structures::build(mesh, cfg))
    }

    /// Build the engine from prebuilt (e.g. loaded) structures.
    pub fn build_from(
        mesh: &'m TerrainMesh,
        scene: &'s Scene<'m>,
        cfg: &Mr3Config,
        structures: crate::persist::Structures,
    ) -> Self {
        let pager = Pager::new(0);
        let tree = structures.tree;
        let cut_grid = CutGrid::new(mesh.extent(), cfg.cut_cache.tiles, cfg.cut_cache.pad_tiles);
        // The DMTM is stored as the cut cache's units, one page run per
        // step the schedule can ask for: each front fraction's step, and
        // step 0 for a pathnet level's leaf charge (fractions above 1
        // clamp to it). Tag each structure's pages so query I/O is
        // attributable.
        let units = {
            let steps: Vec<u32> =
                cfg.schedule.dmtm.iter().map(|&frac| tree.step_for_fraction(frac)).collect();
            let _tag = pager.tag_scope(StructureTag::Dmtm);
            UnitStore::build(&pager, &tree, cut_grid, &steps)
        };
        let msdn = {
            let _tag = pager.tag_scope(StructureTag::Msdn);
            PagedMsdn::build(&pager, &structures.msdn)
        };
        // The weight budget splits 3:1 between front tiles and crossing
        // lines.
        let budget = cfg.cut_cache.capacity_bytes;
        let cut_cache = CutCache::new((budget / 4 * 3).max(1), units);
        let line_cache = LineCutCache::new((budget / 4).max(1));
        let objects = ObjectStore::genesis(scene.objects(), 0, None);
        Self {
            mesh,
            scene,
            objects,
            tree,
            msdn,
            pager,
            cfg: cfg.clone(),
            tracing: false,
            cut_grid,
            cut_cache,
            line_cache,
            scratch_pool: Mutex::new(Vec::new()),
            query_seq: AtomicU64::new(0),
            cold_cache: true,
        }
    }

    /// Combined counter/occupancy snapshot of the shared cut caches.
    /// Always `Some`: the `Option` is the signature the benchmark harness
    /// was written against.
    pub fn cut_cache_snapshot(&self) -> Option<CutCacheSnapshot> {
        let mut s = CutCacheSnapshot::default();
        let mut absorb =
            |stats: sknn_store::CacheStats, gauges: sknn_store::CacheGauges, in_flight: u64| {
                s.hits += stats.hits;
                s.misses += stats.misses;
                s.singleflight_waits += stats.singleflight_waits;
                s.evictions += stats.evictions;
                s.failed_loads += stats.failed_loads;
                s.warm_entries += gauges.warm;
                s.cooling_entries += gauges.cooling;
                s.loading += gauges.loading;
                s.resident_bytes += gauges.resident_weight;
                s.in_flight += in_flight;
            };
        let (cuts, lines) = (&self.cut_cache, &self.line_cache);
        absorb(cuts.stats(), cuts.gauges(), cuts.loads_in_flight());
        absorb(lines.stats(), lines.gauges(), lines.loads_in_flight());
        Some(s)
    }

    /// Drop every resident cut from the shared caches (counters keep
    /// running). The cold-cache query path calls this so page-count
    /// determinism holds per query.
    pub fn clear_cut_caches(&self) {
        self.cut_cache.clear();
        self.line_cache.clear();
    }

    /// Turn on per-query tracing: subsequent queries carry a
    /// [`QueryTrace`] in their results (spans for the four MR3 steps, one
    /// event per ranking iteration, and per-structure I/O attribution).
    pub fn enable_tracing(&mut self) {
        self.tracing = true;
    }

    /// Turn tracing back off (queries stop paying the recording cost).
    pub fn disable_tracing(&mut self) {
        self.tracing = false;
    }

    /// Emit per-structure I/O attribution and the pager window's roll-up
    /// for the query that just ran: the pager and R-tree windows this
    /// thread opened at query start hold its traffic alone.
    fn emit_io(&self, rec: &dyn Recorder, qid: u64, stats: &QueryStats, rtree_accesses: u64) {
        // Dijkstra queue-traffic roll-up: how much priority-queue work the
        // query's bound estimations did, and how much of it was wasted on
        // stale (lazily deleted) entries.
        rec.event(
            "dijkstra",
            qid,
            vec![
                field("settled", stats.settled),
                field("pushes", stats.queue_pushes),
                field("pops", stats.queue_pops),
                field("stale_pops", stats.stale_pops),
            ],
        );
        for (tag, io) in self.pager.io_by_structure() {
            rec.event(
                "io",
                qid,
                vec![
                    field("structure", tag.name()),
                    field("logical", io.logical_reads),
                    field("physical", io.physical_reads),
                    field("hits", io.hits()),
                ],
            );
        }
        // The Dxy R-tree is in-memory and counts node accesses itself;
        // report it under the same schema (every access charged physical).
        let rtree = rtree_accesses;
        if rtree > 0 {
            rec.event(
                "io",
                qid,
                vec![
                    field("structure", StructureTag::Rtree.name()),
                    field("logical", rtree),
                    field("physical", rtree),
                    field("hits", 0u64),
                ],
            );
        }
        rec.event(
            "pool",
            qid,
            vec![
                field("hit_rate", self.pager.hit_rate()),
                field("logical", self.pager.stats().logical_reads),
                field("physical", self.pager.stats().physical_reads),
                field("coalesced", self.pager.concurrency_stats().coalesced_misses),
                field("stalled_batches", self.pager.stalled_batches()),
            ],
        );
        // Shared cut-cache roll-up (cumulative counters + instant gauges).
        if let Some(cc) = self.cut_cache_snapshot() {
            rec.event(
                "cutcache",
                qid,
                vec![
                    field("hits", cc.hits),
                    field("misses", cc.misses),
                    field("sf_waits", cc.singleflight_waits),
                    field("evictions", cc.evictions),
                    field("warm", cc.warm_entries),
                    field("cooling", cc.cooling_entries),
                    field("in_flight", cc.in_flight),
                    field("bytes", cc.resident_bytes),
                ],
            );
        }
        // Fault/retry counters (cumulative over the pager's lifetime —
        // they are deliberately not cleared by the per-query stat reset).
        let faults = self.pager.fault_stats();
        if faults.injected > 0 || faults.checksum_failures > 0 || faults.retries > 0 {
            rec.event(
                "faults",
                qid,
                vec![
                    field("injected", faults.injected),
                    field("retries", faults.retries),
                    field("exhausted", faults.exhausted),
                    field("checksum", faults.checksum_failures),
                    field("permanent", faults.permanent_failures),
                ],
            );
        }
    }

    /// Config.
    pub fn config(&self) -> &Mr3Config {
        &self.cfg
    }

    /// Pager.
    pub fn pager(&self) -> &Pager {
        &self.pager
    }

    /// The scene this engine answers queries over.
    ///
    /// This is the *genesis* object set. Once mutations run, the live set
    /// is the object store's current snapshot ([`objects`](Self::objects));
    /// the scene keeps serving the mesh, locator and query generators.
    pub fn scene(&self) -> &'s Scene<'m> {
        self.scene
    }

    /// The dynamic object store behind the query path.
    pub fn objects(&self) -> &ObjectStore {
        &self.objects
    }

    /// Replace the engine's object store — the recovery path: build the
    /// engine from the same mesh/scene/config, then install the store
    /// rebuilt from a [`CrashImage`](sknn_store::CrashImage) (or one
    /// created with a fault injector). Queries switch to the installed
    /// store's snapshots immediately.
    pub fn with_object_store(mut self, store: ObjectStore) -> Self {
        self.objects = store;
        self
    }

    /// Write-path counters of the object store (WAL, recovery, live
    /// objects).
    pub fn write_stats(&self) -> WriteStats {
        self.objects.write_stats()
    }

    /// Run one query op inside the engine's single query scope: the only
    /// owner of the per-query prologue (mint or adopt the query id, cold
    /// clears, counter resets, snapshot pin, timers, the query's trace ring
    /// and its ranking context — built nowhere else) and epilogue (cpu,
    /// wall, pages, I/O roll-up, the closing `root` span, trace drain,
    /// degraded marker, fault error). `body` composes the stage functions
    /// of [`Scope`] and returns the op's own output.
    pub(crate) fn scoped<T>(
        &self,
        opts: &QueryOpts,
        root: &'static str,
        body: impl FnOnce(&mut Scope<'_, 'm>) -> T,
    ) -> Scoped<T> {
        let qid = match opts.trace_id {
            0 => self.query_seq.fetch_add(1, Ordering::Relaxed),
            id => id,
        };
        if self.cold_cache {
            self.clear_cut_caches();
        }
        self.pager.reset_stats();
        // Pin the object snapshot for the whole query: concurrent
        // mutations publish new snapshots without disturbing this one.
        let objs: Arc<ObjectSnapshot> = self.objects.snapshot();
        objs.rtree().reset_accesses();
        let timer = CpuTimer::start();
        let start = Instant::now();
        // One ring per traced query: concurrent queries never see each
        // other's records.
        let ring = self.tracing.then(|| RingRecorder::new(TRACE_RING_CAPACITY));
        let rec: &dyn Recorder = match &ring {
            Some(r) => r,
            None => &NOOP,
        };
        let scratch: RankScratch =
            self.scratch_pool.lock().unwrap_or_else(|e| e.into_inner()).pop().unwrap_or_default();
        let ctx = RankingContext {
            mesh: self.mesh,
            tree: &self.tree,
            msdn: &self.msdn,
            pager: &self.pager,
            cfg: &self.cfg,
            rec,
            query: qid,
            scratch: RefCell::new(scratch),
            cuts: &self.cut_cache,
            lines: &self.line_cache,
            grid: self.cut_grid,
            faults: FaultLog::new(FAULT_BUDGET),
            deadline: opts.deadline,
            deadline_hit: std::cell::Cell::new(false),
            pool: &self.scratch_pool,
        };
        let mut scope = Scope { objs, ctx, stats: QueryStats::default(), root: Vec::new() };

        let out = body(&mut scope);

        let Scope { objs, ctx, mut stats, root: root_fields } = scope;
        timer.stop_into(&mut stats.cpu);
        stats.wall = start.elapsed();
        stats.pages = self.pager.stats().physical_reads + objs.rtree().accesses();
        let trace = ring.as_ref().map(|ring| {
            self.emit_io(ring, qid, &stats, objs.rtree().accesses());
            let mut fields = vec![field("dur_us", start.elapsed().as_micros() as u64)];
            fields.extend(root_fields);
            fields.push(field("pages", stats.pages));
            ring.span(root, qid, fields);
            ring.drain()
        });
        // Deadline expiry dominates the reported reason — it explains why
        // the bounds are looser than scheduled even when faults also
        // occurred.
        let degraded = if ctx.deadline_hit.get() {
            Some(crate::resilience::Degraded {
                phase: "deadline",
                faults: ctx.faults.count(),
                reason: "DeadlineExpired".to_string(),
            })
        } else {
            ctx.faults.degraded()
        };
        Scoped { out, stats, trace, degraded, error: ctx.faults.error() }
    }

    /// Answer a surface k-NN query, surfacing storage-fault exhaustion as
    /// a typed error.
    ///
    /// Storage faults below the budget degrade gracefully: the affected
    /// refinement steps are skipped, the returned bounds stay valid (the
    /// last materialised resolution's bounds are correct, just looser),
    /// and the result carries a [`Degraded`](crate::Degraded) marker.
    pub fn try_query(&self, q: SurfacePoint, k: usize) -> Result<QueryResult, QueryError> {
        self.try_query_with(q, k, &QueryOpts::default())
    }

    /// [`try_query`](Self::try_query) under explicit [`QueryOpts`] (the
    /// serving layer's per-request deadline, wire trace id and tile): the
    /// four MR3 steps composed over the pinned snapshot's own objects.
    ///
    /// A bounded [`within`](QueryOpts::within) stops the query early —
    /// with no neighbours, the radius it reached, and a `stopped` field on
    /// its `query` span — at step 1 when the snapshot holds fewer than `k`
    /// live objects, and after step 2 when the step-2 circle is not
    /// strictly inside the tile ([`Rect2::contains_disc`]). Otherwise
    /// steps 3–4 run exactly as they do without it.
    pub fn try_query_with(
        &self,
        q: SurfacePoint,
        k: usize,
        opts: &QueryOpts,
    ) -> Result<QueryResult, QueryError> {
        // The whole plane leaves no object beyond it: nothing to stop for.
        let within = opts.within.filter(|w| *w != Rect2::UNBOUNDED);
        self.scoped(opts, "query", |s| {
            let live = s.objs.live();
            if within.is_some() && k > live {
                s.root.extend([field("k", k), field("stopped", "step1")]);
                return (Vec::new(), 0.0);
            }
            let k = k.min(live);
            s.root.push(field("k", k));
            if k == 0 {
                return (Vec::new(), 0.0);
            }
            let seeds = s.seeds(&q, k);
            let (radius, refined) = s.radius(&q, &seeds, true);
            if within.is_some_and(|w| !w.contains_disc(q.pos.xy(), radius)) {
                s.root.push(field("stopped", "step2"));
                return (Vec::new(), radius);
            }
            let cands = s.range(&q, radius);
            (s.rank(&q, &cands, &refined, k, k), radius)
        })
        .into_knn()
    }

    /// Answer a batch of independent k-NN queries on `threads` worker
    /// threads: each query's result or typed error, in batch order.
    ///
    /// Neighbour sets and distance ranges are bit-identical to calling
    /// [`try_query`](Self::try_query) in a sequential loop: results depend
    /// only on the engine's immutable structures, and each query carries
    /// its own ranking scratch, so one failing query does not disturb the
    /// others. The cost fields are exact per query too: a query runs on
    /// one worker thread and reads the pager and R-tree windows that
    /// thread opened at query start, so `stats.pages` and the trace's
    /// per-query `pool` counts are its own, and the batch's `pool` counts
    /// sum to the pager's lifetime deltas over it (`tests/parallel.rs`).
    /// What they count still depends on scheduling: the cut caches are
    /// shared, so a unit or line one query loaded is resident for the
    /// others, and its pages are charged to whichever query loaded it.
    pub fn try_query_batch(
        &self,
        batch: &[(SurfacePoint, usize)],
        threads: usize,
    ) -> Vec<Result<QueryResult, QueryError>> {
        sknn_exec::par_map(threads, batch, |_, &(q, k)| self.try_query(q, k))
    }

    // -----------------------------------------------------------------
    // Decomposed MR3 steps for sharded serving. A router that partitions
    // the object set across engines reconstructs a single-engine run by
    // merging per-shard `seeds2d`/`range2d` lists in canonical order and
    // handing the merged lists back to one engine via `exec_ranked` —
    // first with no candidates, which returns the step-2 radius and no
    // neighbours, then with the merged range. Bounds in the ranking phase
    // depend on the candidate population *and order*, so the guarantee
    // is: same lists in, bit-identical bounds out.
    // -----------------------------------------------------------------

    /// MR3 step 1 in isolation: the `k` nearest live objects to `xy` by
    /// 2D plan distance, in canonical ascending `(distance, id)` order,
    /// each with its located surface point (so a peer without this
    /// shard's object table can rebuild the candidate).
    pub fn seeds2d(&self, xy: sknn_geom::Point2, k: usize) -> Vec<(f64, u32, SurfacePoint)> {
        seeds_of(&self.objects.snapshot(), xy, k)
    }

    /// The read plan of ranking iteration `iter` for `q` against its `n`
    /// nearest objects in the plane as candidates: regions, I/O groups,
    /// the claims in both cut caches and their one batched read, with no
    /// bound computed. The `i`-th nearest candidate gets upper bound
    /// `ubs[i]`; those past the end of `ubs` start fresh (unbounded). A
    /// second call on a warm engine finds every key resident: the
    /// per-iteration overhead of the plan on a warm query, which the
    /// `ranking/plan_iteration/warm` kernel row times. Returns the number
    /// of I/O groups.
    pub fn plan_iteration(
        &self,
        q: SurfacePoint,
        n: usize,
        iter: usize,
        ubs: &[f64],
    ) -> Result<usize, sknn_store::StoreError> {
        self.iteration_fetch(q, n, iter, ubs, false)
    }

    /// [`plan_iteration`](Self::plan_iteration) followed by each group's
    /// front derivation and CSR build: the whole cut fetch of one ranking
    /// iteration, which the `cutcache/cold_iteration` kernel row times on
    /// a cold-cache engine.
    pub fn fetch_iteration(
        &self,
        q: SurfacePoint,
        n: usize,
        iter: usize,
        ubs: &[f64],
    ) -> Result<usize, sknn_store::StoreError> {
        self.iteration_fetch(q, n, iter, ubs, true)
    }

    fn iteration_fetch(
        &self,
        q: SurfacePoint,
        n: usize,
        iter: usize,
        ubs: &[f64],
        derive: bool,
    ) -> Result<usize, sknn_store::StoreError> {
        let terrain = self.mesh.extent();
        let mut cands: Vec<Candidate> = self
            .seeds2d(q.pos.xy(), n)
            .into_iter()
            .map(|(_, id, point)| Candidate::new(&q, id, point, &terrain))
            .collect();
        for (c, &ub) in cands.iter_mut().zip(ubs) {
            c.range.tighten_ub(ub);
        }
        self.scoped(&QueryOpts::default(), "plan", |s| {
            s.ctx.plan_only(&q, &mut cands, iter, derive, &mut s.stats)
        })
        .out
    }

    /// MR3 step 3 in isolation: every live object within 2D plan distance
    /// `radius` of `xy`, ascending by id. A non-finite radius returns
    /// every live object — the degenerate fallback
    /// [`try_query`](Self::try_query) takes when radius estimation fails.
    pub fn range2d(&self, xy: sknn_geom::Point2, radius: f64) -> Vec<(u32, SurfacePoint)> {
        range_of(&self.objects.snapshot(), xy, radius)
    }

    /// MR3 steps 2 + 4 with explicit seed and candidate lists: the
    /// coupled ranking run of a sharded query, executed on the query's
    /// home shard over the router-merged global lists. `seeds` must be in
    /// canonical `(distance, id)` order and `cands` ascending by id —
    /// the orders [`try_query`](Self::try_query) itself produces — and
    /// `k` must already be clamped to the *union* live-object count (this
    /// method cannot see other shards' objects, so it does not clamp).
    /// Seed and candidate points travel with their ids because they may
    /// live on other shards, absent from this engine's object table.
    ///
    /// Returns up to `k + 1` neighbors (one past the answer) so the
    /// caller can re-verify the `ub(p_k) ≤ lb(p_{k+1})` termination
    /// bound itself before truncating; every returned id, `lb`, `ub`,
    /// and the radius are bit-identical to a single engine over the
    /// union object set running the same query. With `cands` empty, the
    /// result is step 2 alone: the radius of `seeds`, no neighbours, no
    /// ranking iteration.
    pub fn exec_ranked(
        &self,
        q: SurfacePoint,
        k: usize,
        seeds: &[(u32, SurfacePoint)],
        cands: &[(u32, SurfacePoint)],
        opts: &QueryOpts,
    ) -> Result<QueryResult, QueryError> {
        self.scoped(opts, "exec", |s| {
            s.root.push(field("k", k));
            if k == 0 {
                return (Vec::new(), 0.0);
            }
            // Step 2 runs here even when a radius-only call over the same
            // seeds came first, because the refined seed bounds must carry
            // over into step 4's candidates, exactly as in a single-engine
            // run.
            let (radius, refined) = s.radius(&q, seeds, !cands.is_empty());
            (s.rank(&q, cands, &refined, k, k + 1), radius)
        })
        .into_knn()
    }

    /// Progressive distance estimation (paper §5.3): "a query like 'what
    /// is the surface distance between a and b within accuracy 95%' can be
    /// directly processed". Refines the pair's distance range level by
    /// level and stops as soon as `lb/ub >= accuracy` (or the schedule is
    /// exhausted — the achieved accuracy is in the returned range). The
    /// third element is the execution trace, when tracing is enabled.
    pub fn distance_with_accuracy(
        &self,
        a: SurfacePoint,
        b: SurfacePoint,
        accuracy: f64,
    ) -> (crate::bounds::DistRange, QueryStats, Option<QueryTrace>) {
        let s = self.scoped(&QueryOpts::default(), "distance", |s| {
            s.root.push(field("accuracy", accuracy));
            let mut range = crate::bounds::DistRange::unbounded();
            range.tighten_lb(a.pos.dist(b.pos));
            if a.tri == b.tri {
                range.tighten_ub(a.pos.dist(b.pos));
            }
            for i in 0..self.cfg.schedule.len() {
                if range.accuracy() >= accuracy {
                    break;
                }
                let est =
                    s.ctx.estimate_pair(&a, &b, i, self.cfg.schedule.msdn_level(i), &mut s.stats);
                range.tighten_lb(est.lb);
                range.tighten_ub(est.ub);
                s.stats.iterations += 1;
            }
            range
        });
        (s.out, s.stats, s.trace)
    }

    /// Fig.-8 support: one-shot range estimation of the pair `(a, b)` at
    /// the DMTM resolution of schedule step `dmtm_step` (an index into
    /// `config().schedule.dmtm`) and MSDN level `msdn_level` — no
    /// iteration, no pruning.
    pub fn estimate_pair(
        &self,
        a: SurfacePoint,
        b: SurfacePoint,
        dmtm_step: usize,
        msdn_level: usize,
    ) -> crate::bounds::DistRange {
        self.scoped(&QueryOpts::default(), "pair", |s| {
            s.ctx.estimate_pair(&a, &b, dmtm_step, msdn_level, &mut s.stats)
        })
        .out
    }

    /// Surface *range query* (paper §6): all objects whose surface distance
    /// from `q` is at most `radius`, found without computing any exact
    /// surface distance. Candidates come from a planar range query (always
    /// a superset, since `dE <= dS`), then distance-range ranking classifies
    /// each one. Returns ids ascending plus the usual cost counters.
    pub fn range_query(&self, q: SurfacePoint, radius: f64) -> RangeResult {
        let s = self.scoped(&QueryOpts::default(), "range_query", |s| {
            s.root.push(field("radius", radius));
            let terrain = s.ctx.mesh.extent();
            let mut cands: Vec<Candidate> = s
                .objs
                .rtree()
                .within_distance(q.pos.xy(), radius)
                .iter()
                .map(|&(_, id)| Candidate::new(&q, id, s.objs.point(id), &terrain))
                .collect();
            s.stats.candidates = cands.len();
            s.ctx.resolve_within(&q, &mut cands, radius, &mut s.stats)
        });
        let (inside, undecided) = s.out;
        RangeResult { inside, undecided, stats: s.stats, trace: s.trace, degraded: s.degraded }
    }
}

/// Per-query options of the engine's entry points. The default — no
/// deadline, engine-minted query id — is what [`Mr3Engine::try_query`]
/// runs under.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryOpts {
    /// Wall-clock deadline, checked between refinement iterations: on
    /// expiry the query stops escalating resolution and returns its
    /// current valid bounds with a [`Degraded`](crate::Degraded) reason of
    /// `DeadlineExpired` — every materialised resolution's bounds bracket
    /// the exact distance, so an expired query still answers correctly,
    /// just less tightly. `None` runs to convergence.
    pub deadline: Option<Instant>,
    /// When non-zero, stamps every obs record the query emits — step
    /// spans, iteration events, I/O attribution, fault events — in place
    /// of the engine's own sequence number, so a serving-layer request
    /// keeps its records attributable even when batched with strangers.
    pub trace_id: u64,
    /// The tile [`Mr3Engine::try_query_with`]'s answer must stay inside:
    /// a shard's objects are the whole population only within its tile.
    /// `None` — or [`Rect2::UNBOUNDED`] — is the full query.
    pub within: Option<Rect2>,
}

/// The state of one query between the prologue and epilogue of
/// [`Mr3Engine::scoped`]: the pinned object snapshot, the ranking context
/// and the cost counters. The MR3 steps are its four stage methods; every
/// query op is a composition of them.
pub(crate) struct Scope<'e, 'm> {
    /// The object snapshot pinned for this query.
    pub(crate) objs: Arc<ObjectSnapshot>,
    /// Ranking context stamped with this query's id and deadline.
    pub(crate) ctx: RankingContext<'e, 'm>,
    /// Cost counters, finished by the epilogue.
    pub(crate) stats: QueryStats,
    /// Op-specific fields of the closing root span (`k`, `radius`, …).
    pub(crate) root: Vec<sknn_obs::Field>,
}

/// What [`Mr3Engine::scoped`] hands back: the op's output plus everything
/// the epilogue produced.
pub(crate) struct Scoped<T> {
    pub(crate) out: T,
    pub(crate) stats: QueryStats,
    pub(crate) trace: Option<QueryTrace>,
    pub(crate) degraded: Option<crate::resilience::Degraded>,
    /// Set when the query exceeded its storage-fault budget.
    pub(crate) error: Option<QueryError>,
}

impl Scoped<(Vec<Neighbor>, f64)> {
    fn into_knn(self) -> Result<QueryResult, QueryError> {
        if let Some(err) = self.error {
            return Err(err);
        }
        let (neighbors, radius) = self.out;
        Ok(QueryResult {
            neighbors,
            stats: self.stats,
            trace: self.trace,
            degraded: self.degraded,
            radius,
        })
    }
}

impl Scope<'_, '_> {
    /// Step 1: 2D k-NN on the projections, canonically selected and
    /// ordered (see [`seeds_of`]) so the seed list — and every
    /// order-sensitive bound downstream — is a pure function of the
    /// object set, which is what lets a sharding router reproduce this
    /// run from per-shard partial lists.
    fn seeds(&mut self, q: &SurfacePoint, k: usize) -> Vec<(u32, SurfacePoint)> {
        let step = Instant::now();
        let seeds: Vec<(u32, SurfacePoint)> =
            seeds_of(&self.objs, q.pos.xy(), k).into_iter().map(|(_, id, p)| (id, p)).collect();
        self.stats.stages.knn2d_us = step.elapsed().as_micros() as u64;
        if self.ctx.rec.enabled() {
            self.ctx.rec.span(
                "step1_knn2d",
                self.ctx.query,
                vec![
                    field("dur_us", self.stats.stages.knn2d_us),
                    field("k", k),
                    field("seeds", seeds.len()),
                ],
            );
        }
        seeds
    }

    /// Step 2: rank the seeds to bound the k-th neighbour's distance.
    /// Returns the search radius and the refined seed candidates, whose
    /// bounds [`rank`](Self::rank) carries over. `rank_follows` says step 4
    /// runs in this scope, so the radius run may read ahead for it.
    fn radius(
        &mut self,
        q: &SurfacePoint,
        seeds: &[(u32, SurfacePoint)],
        rank_follows: bool,
    ) -> (f64, Vec<Candidate>) {
        let step = Instant::now();
        let before = self.stats.stages;
        let terrain = self.ctx.mesh.extent();
        let mut cands: Vec<Candidate> =
            seeds.iter().map(|&(id, p)| Candidate::new(q, id, p, &terrain)).collect();
        let radius = self.ctx.estimate_radius(q, &mut cands, rank_follows, &mut self.stats);
        self.stats.stages.radius_us = step.elapsed().as_micros() as u64;
        if self.ctx.rec.enabled() {
            let mut fields =
                vec![field("dur_us", self.stats.stages.radius_us), field("radius", radius)];
            fields.extend(rank_phase_fields(&before, &self.stats.stages));
            self.ctx.rec.span("step2_radius", self.ctx.query, fields);
        }
        (radius, cands)
    }

    /// Step 3: planar range query with the safe radius.
    fn range(&mut self, q: &SurfacePoint, radius: f64) -> Vec<(u32, SurfacePoint)> {
        let step = Instant::now();
        let in_range = range_of(&self.objs, q.pos.xy(), radius);
        self.stats.stages.range_us = step.elapsed().as_micros() as u64;
        if self.ctx.rec.enabled() {
            self.ctx.rec.span(
                "step3_range",
                self.ctx.query,
                vec![
                    field("dur_us", self.stats.stages.range_us),
                    field("candidates", in_range.len()),
                ],
            );
        }
        in_range
    }

    /// Step 4: rank `cands` until the top `k` separate, and return the
    /// best `keep`. Bounds of the `refined` step-2 seeds carry over so
    /// that work is not repeated.
    fn rank(
        &mut self,
        q: &SurfacePoint,
        cands: &[(u32, SurfacePoint)],
        refined: &[Candidate],
        k: usize,
        keep: usize,
    ) -> Vec<Neighbor> {
        let step = Instant::now();
        let before = self.stats.stages;
        let terrain = self.ctx.mesh.extent();
        let mut cands: Vec<Candidate> = cands
            .iter()
            .map(|&(id, p)| {
                refined
                    .iter()
                    .find(|c| c.id == id)
                    .cloned()
                    .unwrap_or_else(|| Candidate::new(q, id, p, &terrain))
            })
            .collect();
        self.stats.candidates = cands.len();
        let resolved = self.ctx.rank_top_k(q, &mut cands, k, &mut self.stats);
        self.stats.stages.rank_us = step.elapsed().as_micros() as u64;
        if self.ctx.rec.enabled() {
            let mut fields = vec![
                field("dur_us", self.stats.stages.rank_us),
                field("resolved", resolved),
                field("iterations", self.stats.iterations),
            ];
            fields.extend(rank_phase_fields(&before, &self.stats.stages));
            self.ctx.rec.span("step4_rank", self.ctx.query, fields);
        }
        let mut alive: Vec<&Candidate> = cands.iter().filter(|c| !c.out).collect();
        alive.sort_by(|a, b| {
            a.range.ub.total_cmp(&b.range.ub).then(a.range.lb.total_cmp(&b.range.lb))
        });
        alive.into_iter().take(keep).map(|c| Neighbor { id: c.id, range: c.range }).collect()
    }
}

/// Combined counter/occupancy snapshot of the engine's shared cut caches
/// (DMTM front tiles + MSDN lines summed), as returned by
/// [`Mr3Engine::cut_cache_snapshot`]. Counters are cumulative since engine
/// build (or the last reset) and count residency *units* — a fetch touches
/// one unit per tile or line of its region; per-fetch hits and misses are
/// in [`QueryStats`]. Gauges describe the current instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CutCacheSnapshot {
    /// Units served from memory.
    pub hits: u64,
    /// Units loaded from storage.
    pub misses: u64,
    /// Units a fetch waited for while another query's load of them was in
    /// flight.
    pub singleflight_waits: u64,
    /// Resident units evicted to stay within the weight budget.
    pub evictions: u64,
    /// Unit loads that failed (storage faults); nothing was published.
    pub failed_loads: u64,
    /// Resident units currently marked warm (recently used).
    pub warm_entries: u64,
    /// Resident units cooled by the CLOCK hand (eviction candidates).
    pub cooling_entries: u64,
    /// Units currently holding a loading latch.
    pub loading: u64,
    /// Approximate bytes of resident unit data.
    pub resident_bytes: u64,
    /// Unit loads running right now.
    pub in_flight: u64,
}

impl CutCacheSnapshot {
    /// Hit rate over all unit lookups so far (0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Result of a surface range query.
#[derive(Debug, Clone)]
pub struct RangeResult {
    /// Objects classified (or estimated, when listed in `undecided`) to be
    /// within the radius, ascending by id.
    pub inside: Vec<u32>,
    /// Objects whose final range still straddled the radius (classified by
    /// range midpoint in `inside`).
    pub undecided: Vec<u32>,
    /// Cost counters of the query.
    pub stats: QueryStats,
    /// Execution trace, when the engine has tracing enabled.
    pub trace: Option<QueryTrace>,
    /// Set when storage faults were absorbed: classifications remain
    /// bound-correct, but more objects may be left `undecided`.
    pub degraded: Option<crate::resilience::Degraded>,
}

/// The ranking-phase split (`rank_*` and `fetch_*` of [`StageTimes`])
/// accumulated between two readings, as span fields: what one ranking
/// step spent fetching cuts — reading, decoding and deriving — on upper
/// bounds, on lower bounds and in the pathnet.
fn rank_phase_fields(before: &StageTimes, after: &StageTimes) -> Vec<sknn_obs::Field> {
    vec![
        field("fetch_us", after.rank_fetch_us - before.rank_fetch_us),
        field("fetch_read_us", after.fetch_read_us - before.fetch_read_us),
        field("fetch_decode_us", after.fetch_decode_us - before.fetch_decode_us),
        field("fetch_derive_us", after.fetch_derive_us - before.fetch_derive_us),
        field("ub_us", after.rank_ub_us - before.rank_ub_us),
        field("lb_us", after.rank_lb_us - before.rank_lb_us),
        field("pathnet_us", after.rank_pathnet_us - before.rank_pathnet_us),
    ]
}

/// The bare step 1: the canonically *selected and ordered* 2-D seed set —
/// the `k` nearest live objects by the total order (plan distance, then
/// id), as `(distance, id, point)` triples in that order.
///
/// `knn` alone resolves equal-distance ties at the selection boundary in
/// best-first heap order, which depends on tree shape — so a shard's
/// local tree and the union tree over the same objects could select
/// *different* members of a tie group, and every bound downstream of the
/// seed list would diverge. Over-fetching one extra neighbour detects a
/// tie spanning the boundary; when one exists, the whole tie group is
/// re-fetched by a range probe at the k-th distance and the winners
/// picked by id. The selected set is then a pure function of the object
/// set, which is what sharded serving's exact-merge guarantee rests on.
fn seeds_of(
    objs: &ObjectSnapshot,
    xy: sknn_geom::Point2,
    k: usize,
) -> Vec<(f64, u32, SurfacePoint)> {
    let k = k.min(objs.live());
    let mut seeds: Vec<(f64, u32)> =
        objs.rtree().knn(xy, k + 1).into_iter().map(|(d, _, id)| (d, id)).collect();
    seeds.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    if k > 0 && seeds.len() > k && seeds[k].0 == seeds[k - 1].0 {
        // The k-th distance is shared across the selection boundary: pull
        // every object within that distance and re-select by the total
        // order. Probe distances are recomputed with the same formula the
        // batched k-NN kernel uses, so they compare bit-identically.
        let kth = seeds[k - 1].0;
        for (rect, id) in objs.rtree().within_distance(xy, kth) {
            if !seeds.iter().any(|&(_, s)| s == id) {
                seeds.push((rect.min_dist_point(xy), id));
            }
        }
        seeds.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    }
    seeds.truncate(k);
    seeds.into_iter().map(|(d, id)| (d, id, objs.point(id))).collect()
}

/// The bare step 3: every live object within 2D plan distance `radius`
/// of `xy`, or every live object when the radius is not finite (radius
/// estimation failed on a degenerate scene; rank everything).
///
/// Ascending by id: the R-tree range query yields DFS tree order, which
/// depends on insertion history, and candidate order steers region
/// grouping in step 4 — so it must be reproducible from the object set
/// alone.
fn range_of(objs: &ObjectSnapshot, xy: sknn_geom::Point2, radius: f64) -> Vec<(u32, SurfacePoint)> {
    let mut ids: Vec<u32> = if radius.is_finite() {
        objs.rtree().within_distance(xy, radius).into_iter().map(|(_, id)| id).collect()
    } else {
        objs.live_ids()
    };
    ids.sort_unstable();
    ids.into_iter().map(|id| (id, objs.point(id))).collect()
}

/// Compile-time seal of the thread-safety contract `try_query_batch` relies
/// on: if any engine component regresses to unsynchronised interior
/// mutability (`Cell`, `RefCell`, raw pointers), this stops compiling.
#[allow(dead_code)]
fn _assert_engine_sync<'a>(engine: &'a Mr3Engine<'_, '_>) -> &'a (dyn Sync + 'a) {
    engine
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ch::ChEngine;
    use crate::config::StepSchedule;
    use crate::workload::SceneBuilder;
    use sknn_geom::Point2;
    use sknn_terrain::dem::TerrainConfig;

    fn mesh() -> TerrainMesh {
        TerrainConfig::ep().with_grid(17).build_mesh(55)
    }

    #[test]
    fn returns_k_neighbors_with_bracketing_ranges() {
        let mesh = mesh();
        let scene = SceneBuilder::new(&mesh).object_count(25).seed(1).build();
        let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
        let q = scene.random_query(3);
        let res = engine.try_query(q, 5).unwrap();
        assert_eq!(res.neighbors.len(), 5);
        assert!(res.stats.pages > 0);
        assert!(res.stats.candidates >= 5);
        // Ranges are ordered and well-formed.
        for n in &res.neighbors {
            assert!(n.range.lb <= n.range.ub + 1e-9);
        }
        for w in res.neighbors.windows(2) {
            assert!(w[0].range.ub <= w[1].range.ub + 1e-9);
        }
    }

    #[test]
    fn matches_exact_ground_truth_within_bound_error() {
        let mesh = mesh();
        let scene = SceneBuilder::new(&mesh).object_count(30).seed(7).build();
        let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
        let exact = ChEngine::new(&scene);
        for qseed in [1u64, 2, 3] {
            let q = scene.random_query(qseed);
            let k = 4;
            let got = engine.try_query(q, k).unwrap();
            let truth = exact.query(q, k);
            let kth_exact = truth.neighbors.last().unwrap().range.ub;
            // Every returned neighbour's true distance must be within the
            // k-th exact distance plus the engine's residual bound width.
            // The top resolution is the 1-Steiner pathnet, whose error
            // budget matches the paper's 97 %-accuracy setting, so allow
            // 5 % of the k-th distance.
            for n in &got.neighbors {
                let d = exact.pair_distance(q, scene.object(n.id).point);
                let slack = (n.range.width()).max(kth_exact * 0.05) + 1e-6;
                assert!(
                    d <= kth_exact + slack,
                    "q{qseed}: object {} at {d} vs kth {kth_exact} (slack {slack})",
                    n.id
                );
            }
        }
    }

    /// Record names of a trace, as a name → count multiset.
    fn names(trace: &QueryTrace) -> std::collections::BTreeMap<&'static str, usize> {
        let mut m = std::collections::BTreeMap::new();
        for r in &trace.records {
            *m.entry(r.name).or_insert(0) += 1;
        }
        m
    }

    fn bits(ns: &[Neighbor]) -> Vec<(u32, u64, u64)> {
        ns.iter().map(|n| (n.id, n.range.lb.to_bits(), n.range.ub.to_bits())).collect()
    }

    /// Run `q` through both compositions of the stage functions — the
    /// monolithic `try_query_with` and the router's `seeds2d` →
    /// `exec_ranked` over no candidates → `range2d` → `exec_ranked` — and
    /// check the contract between them: the candidate-free call is step 2
    /// alone (same radius bits, no neighbours, nothing ranked), and
    /// `exec_ranked` returns `min(k + 1, alive)` neighbours whose first
    /// `k` match the monolithic answer bit for bit. Returns the monolithic
    /// result, the radius-only one and the ranked one.
    fn both_compositions(
        engine: &Mr3Engine<'_, '_>,
        q: SurfacePoint,
        k: usize,
        opts: &QueryOpts,
    ) -> (QueryResult, QueryResult, QueryResult) {
        let whole = engine.try_query_with(q, k, opts).unwrap();

        let kc = k.min(engine.objects().snapshot().live());
        let seeds: Vec<(u32, SurfacePoint)> =
            engine.seeds2d(q.pos.xy(), k).into_iter().map(|(_, id, p)| (id, p)).collect();
        assert_eq!(seeds.len(), kc);
        let radius = engine.exec_ranked(q, kc, &seeds, &[], opts).unwrap();
        assert_eq!(radius.radius.to_bits(), whole.radius.to_bits(), "radius differs");
        assert!(radius.neighbors.is_empty());
        assert_eq!(radius.stats.candidates, 0);
        let cands = engine.range2d(q.pos.xy(), radius.radius);
        let split = engine.exec_ranked(q, kc, &seeds, &cands, opts).unwrap();

        assert_eq!(split.radius.to_bits(), whole.radius.to_bits());
        assert_eq!(whole.neighbors.len(), kc);
        // `min(k + 1, alive)`: ranking keeps at least k candidates alive
        // and may eliminate every one past them.
        let n = split.neighbors.len();
        assert!(kc.min(cands.len()) <= n && n <= (kc + 1).min(cands.len()), "{n} of k {kc}");
        assert_eq!(bits(&whole.neighbors), bits(&split.neighbors[..kc.min(n)]));
        (whole, radius, split)
    }

    /// The sharded-serving keystone: reconstructing a query from the
    /// decomposed steps is bit-identical to the monolithic path — same
    /// ids, same bound bits, same radius bits — and, traced, the
    /// monolithic query emits exactly the records it always has.
    #[test]
    fn decomposed_steps_match_monolithic_query_bit_exact() {
        let mesh = mesh();
        let scene = SceneBuilder::new(&mesh).object_count(30).seed(9).build();
        let mut engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
        engine.enable_tracing();
        let opts = QueryOpts::default();
        // (query seed, ranking iterations it has always taken)
        for (qseed, iterations) in [(1u64, 10), (4, 4), (8, 3)] {
            let q = scene.random_query(qseed);
            let (whole, radius, split) = both_compositions(&engine, q, 4, &opts);
            assert_eq!(whole.stats.iterations, iterations, "q{qseed}");

            // Ranking no candidates ends at its first termination test:
            // every iteration the radius-only EXEC counts is a step-2 one.
            let trace = radius.trace.as_ref().expect("tracing on");
            let phases: Vec<_> = trace
                .records
                .iter()
                .filter(|r| r.name == "iter")
                .map(|r| r.get("phase").and_then(|v| v.as_str()))
                .collect();
            assert_eq!(phases.len(), radius.stats.iterations, "q{qseed}");
            assert!(phases.iter().all(|&p| p == Some("radius")), "q{qseed}: {phases:?}");

            // One span per step, the iteration and roll-up events, one
            // closing `query` span — and nothing else, all under one id.
            let trace = whole.trace.as_ref().expect("tracing on");
            let mut want = std::collections::BTreeMap::from([
                ("step1_knn2d", 1),
                ("step2_radius", 1),
                ("step3_range", 1),
                ("step4_rank", 1),
                ("query", 1),
                ("dijkstra", 1),
                ("pool", 1),
                ("cutcache", 1),
                ("iter", whole.stats.iterations),
                ("io", trace.io_by_structure().len()),
            ]);
            assert_eq!(names(trace), want, "q{qseed}");
            assert_eq!(trace.records.last().unwrap().name, "query");
            let qid = trace.records[0].query;
            assert!(trace.records.iter().all(|r| r.query == qid));

            // EXEC is radius → rank(k + 1): no step 1 or 3, its own root.
            let trace = split.trace.as_ref().expect("tracing on");
            for gone in ["step1_knn2d", "step3_range", "query"] {
                want.remove(gone);
            }
            want.insert("exec", 1);
            want.insert("iter", split.stats.iterations);
            want.insert("io", trace.io_by_structure().len());
            assert_eq!(names(trace), want, "q{qseed} exec");
        }
    }

    #[test]
    fn compositions_agree_on_degenerate_k_and_expired_deadline() {
        let mesh = mesh();
        let scene = SceneBuilder::new(&mesh).object_count(6).seed(9).build();
        let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
        let q = scene.random_query(4);
        let opts = QueryOpts::default();

        let (whole, _, split) = both_compositions(&engine, q, 0, &opts);
        assert!(whole.neighbors.is_empty() && split.neighbors.is_empty());
        assert_eq!(whole.radius, 0.0);

        // k beyond the live count clamps to it; every object is a seed,
        // so EXEC has no (k + 1)-th neighbour to return.
        let (whole, _, split) = both_compositions(&engine, q, 10, &opts);
        assert_eq!((whole.neighbors.len(), split.neighbors.len()), (6, 6));

        // An already-expired deadline degrades both compositions to the
        // same seed-resolution bounds.
        let expired = QueryOpts { deadline: Some(Instant::now()), ..QueryOpts::default() };
        let (whole, _, split) = both_compositions(&engine, q, 3, &expired);
        for r in [&whole, &split] {
            assert_eq!(r.degraded.as_ref().expect("must degrade").reason, "DeadlineExpired");
        }

        // An unbounded tile is no tile: the same answer, bit for bit,
        // also when k exceeds the live count.
        let within = |w: Rect2| QueryOpts { within: Some(w), ..QueryOpts::default() };
        for k in [3, 10] {
            let free = engine.try_query(q, k).unwrap();
            let open = engine.try_query_with(q, k, &within(Rect2::UNBOUNDED)).unwrap();
            assert_eq!(bits(&open.neighbors), bits(&free.neighbors), "k {k}");
            assert_eq!(open.radius.to_bits(), free.radius.to_bits(), "k {k}");
        }

        // A tile the step-2 circle crosses stops the query after step 2:
        // no neighbours, the same radius; one it clears changes nothing.
        let free = engine.try_query(q, 3).unwrap();
        let (c, r) = (q.pos.xy(), free.radius);
        let tile = |half: f64| Rect2::new(c - Point2::new(half, half), c + Point2::new(half, half));
        let crossed = engine.try_query_with(q, 3, &within(tile(r / 2.0))).unwrap();
        assert!(crossed.neighbors.is_empty());
        assert_eq!(crossed.radius.to_bits(), free.radius.to_bits());
        let cleared = engine.try_query_with(q, 3, &within(tile(2.0 * r))).unwrap();
        assert_eq!(bits(&cleared.neighbors), bits(&free.neighbors));
        // More objects asked for than the tile holds: stopped at step 1.
        let short = engine.try_query_with(q, 10, &within(tile(2.0 * r))).unwrap();
        assert!(short.neighbors.is_empty() && short.radius == 0.0);
    }

    /// Every op runs in the one query scope: it mints its own id and
    /// closes with its own root span.
    #[test]
    fn every_traced_op_closes_its_own_scope() {
        let mesh = mesh();
        let scene = SceneBuilder::new(&mesh).object_count(12).seed(3).build();
        let mut engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
        engine.enable_tracing();
        let (a, b) = (scene.random_query(1), scene.random_query(2));
        let opts = QueryOpts::default();
        let seeds: Vec<(u32, SurfacePoint)> =
            engine.seeds2d(a.pos.xy(), 3).into_iter().map(|(_, id, p)| (id, p)).collect();

        let traces = [
            ("query", engine.try_query(a, 3).unwrap().trace),
            ("exec", engine.exec_ranked(a, 3, &seeds, &seeds, &opts).unwrap().trace),
            ("range_query", engine.range_query(a, 60.0).trace),
            ("distance", engine.distance_with_accuracy(a, b, 0.9).2),
            ("closest_pair", engine.closest_pair().unwrap().trace),
        ];
        let mut ids = Vec::new();
        for (root, trace) in traces {
            let trace = trace.expect("tracing on");
            let last = trace.records.last().unwrap();
            assert_eq!(last.name, root);
            assert!(trace.records.iter().all(|r| r.query == last.query), "{root}: foreign record");
            let n = names(&trace);
            assert_eq!((n[root], n["dijkstra"], n["pool"]), (1, 1, 1), "{root}");
            ids.push(last.query);
        }
        ids.dedup();
        assert_eq!(ids.len(), 5, "each op mints its own query id: {ids:?}");
    }

    #[test]
    fn schedules_agree_on_results() {
        let mesh = mesh();
        let scene = SceneBuilder::new(&mesh).object_count(20).seed(17).build();
        let q = scene.random_query(9);
        let exact = ChEngine::new(&scene);
        let mut per_schedule = Vec::new();
        for sched in [StepSchedule::s1(), StepSchedule::s2(), StepSchedule::s3()] {
            let cfg = Mr3Config::default().with_schedule(sched);
            let engine = Mr3Engine::build(&mesh, &scene, &cfg);
            let res = engine.try_query(q, 3).unwrap();
            assert_eq!(res.neighbors.len(), 3);
            // Identical distance quality across schedules (3rd neighbour's
            // true distance within mutual slack).
            let worst = res
                .neighbors
                .iter()
                .map(|n| exact.pair_distance(q, scene.object(n.id).point))
                .fold(0.0f64, f64::max);
            per_schedule.push(worst);
        }
        let best = per_schedule.iter().cloned().fold(f64::INFINITY, f64::min);
        for w in &per_schedule {
            assert!(*w <= best * 1.05 + 1e-6, "schedule mismatch: {per_schedule:?}");
        }
    }

    #[test]
    fn integrated_io_reduces_pages() {
        let mesh = mesh();
        let scene = SceneBuilder::new(&mesh).object_count(40).seed(23).build();
        let q = scene.random_query(4);
        let on = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
        let off_cfg = Mr3Config { integrated_io: false, ..Mr3Config::default() };
        let off = Mr3Engine::build(&mesh, &scene, &off_cfg);
        let pages_on = on.try_query(q, 8).unwrap().stats.pages;
        let pages_off = off.try_query(q, 8).unwrap().stats.pages;
        assert!(pages_on <= pages_off, "integration on {pages_on} > off {pages_off}");
    }

    #[test]
    fn range_query_matches_exact_up_to_bound_width() {
        let mesh = mesh();
        let scene = SceneBuilder::new(&mesh).object_count(30).seed(31).build();
        let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
        let exact = ChEngine::new(&scene);
        let q = scene.random_query(5);
        for radius in [40.0, 80.0, 150.0] {
            let got = engine.range_query(q, radius);
            let want = exact.range_query(q, radius);
            // Decided candidates must match the exact answer exactly;
            // undecided ones may differ by the residual bound width.
            for id in &want {
                assert!(
                    got.inside.contains(id) || got.undecided.contains(id),
                    "radius {radius}: missing object {id}"
                );
            }
            for id in &got.inside {
                if !got.undecided.contains(id) {
                    assert!(want.contains(id), "radius {radius}: spurious object {id}");
                }
            }
        }
    }

    #[test]
    fn distance_with_accuracy_brackets_and_stops_early() {
        let mesh = mesh();
        let scene = SceneBuilder::new(&mesh).object_count(4).seed(13).build();
        let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
        let a = scene.random_query(1);
        let b = scene.random_query(9);
        let exact = ChEngine::new(&scene);
        let ds = exact.pair_distance(a, b);
        let (loose, loose_stats, _) = engine.distance_with_accuracy(a, b, 0.5);
        let (tight, tight_stats, _) = engine.distance_with_accuracy(a, b, 0.95);
        for r in [loose, tight] {
            assert!(r.lb <= ds + 1e-6 && ds <= r.ub + 1e-6, "range {r:?} misses {ds}");
        }
        assert!(loose.accuracy() >= 0.5);
        assert!(tight.accuracy() >= loose.accuracy() - 1e-9);
        // The looser target must not cost more iterations.
        assert!(loose_stats.iterations <= tight_stats.iterations);
    }

    #[test]
    fn range_query_zero_radius() {
        let mesh = mesh();
        let scene = SceneBuilder::new(&mesh).object_count(10).seed(3).build();
        let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
        // Query exactly at an object: only that object is within radius 0+.
        let at = scene.object(4).point;
        let res = engine.range_query(at, 1e-6);
        assert_eq!(res.inside, vec![4]);
    }

    #[test]
    fn range_query_covers_everything_with_huge_radius() {
        let mesh = mesh();
        let scene = SceneBuilder::new(&mesh).object_count(12).seed(9).build();
        let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
        let q = scene.random_query(2);
        let res = engine.range_query(q, 1e9);
        assert_eq!(res.inside.len(), 12);
        assert!(res.undecided.is_empty());
    }

    #[test]
    fn expired_deadline_still_brackets_exact_distances() {
        let mesh = mesh();
        let scene = SceneBuilder::new(&mesh).object_count(20).seed(41).build();
        // A zero deadline expires before the first ranking iteration: the
        // query must still answer, with Euclidean/seed bounds that bracket
        // the exact surface distances, and carry the DeadlineExpired
        // degradation marker.
        let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
        let q = scene.random_query(6);
        let expired = QueryOpts { deadline: Some(Instant::now()), ..QueryOpts::default() };
        let res = engine.try_query_with(q, 4, &expired).unwrap();
        assert_eq!(res.neighbors.len(), 4);
        let d = res.degraded.expect("zero deadline must degrade");
        assert_eq!(d.phase, "deadline");
        assert_eq!(d.reason, "DeadlineExpired");
        let exact = ChEngine::new(&scene);
        for n in &res.neighbors {
            let ds = exact.pair_distance(q, scene.object(n.id).point);
            assert!(n.range.lb <= ds + 1e-6, "object {}: lb {} > exact {ds}", n.id, n.range.lb);
            assert!(n.range.ub >= ds - 1e-6, "object {}: ub {} < exact {ds}", n.id, n.range.ub);
        }
    }

    #[test]
    fn generous_deadline_matches_unbounded_query() {
        let mesh = mesh();
        let scene = SceneBuilder::new(&mesh).object_count(15).seed(43).build();
        let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
        let q = scene.random_query(8);
        let a = engine.try_query(q, 3).unwrap();
        let generous = QueryOpts {
            deadline: Some(Instant::now() + std::time::Duration::from_secs(600)),
            ..QueryOpts::default()
        };
        let b = engine.try_query_with(q, 3, &generous).unwrap();
        assert!(b.degraded.is_none(), "generous deadline must not degrade");
        let ids = |r: &QueryResult| {
            r.neighbors
                .iter()
                .map(|n| (n.id, n.range.lb.to_bits(), n.range.ub.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(&a), ids(&b));
    }

    #[test]
    fn deterministic_across_runs() {
        let mesh = mesh();
        let scene = SceneBuilder::new(&mesh).object_count(15).seed(2).build();
        let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
        let q = scene.random_query(6);
        let a = engine.try_query(q, 3).unwrap();
        let b = engine.try_query(q, 3).unwrap();
        let ids = |r: &QueryResult| r.neighbors.iter().map(|n| n.id).collect::<Vec<_>>();
        assert_eq!(ids(&a), ids(&b));
        assert_eq!(a.stats.pages, b.stats.pages);
    }

    #[test]
    fn ranking_settles_what_it_touches_not_the_terrain() {
        // What this query settled while every filtered run went to
        // exhaustion over a rebuilt front and every pathnet member was
        // charged the whole mesh's vertex count.
        const SETTLED_BEFORE: usize = 52_696;
        let mesh = TerrainConfig::bh().with_grid(65).build_mesh(7);
        let scene = SceneBuilder::new(&mesh).object_count(40).seed(5).build();
        let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
        let res = engine.try_query(scene.random_query(3), 5).unwrap();
        let ids: Vec<u32> = res.neighbors.iter().map(|n| n.id).collect();
        assert_eq!(ids, [31, 29, 30, 3, 34]);
        assert!(
            res.stats.settled * 2 < SETTLED_BEFORE,
            "settled {} of {SETTLED_BEFORE} before",
            res.stats.settled
        );
    }
}
