//! The multi-resolution distance-range ranking engine (paper §4.2).
//!
//! Given a query point and a set of candidate objects, the engine
//! maintains a distance range `[lb, ub]` per candidate and alternates
//! upper-bound estimation (Dijkstra over DMTM fronts, then the pathnet)
//! with lower-bound estimation (MSDN networks), escalating resolution per
//! the configured step schedule until the k-th neighbour separates:
//! `ub(p_k) <= lb(p_{k+1})`. Candidates whose lower bound exceeds the
//! current k-th upper bound are dropped; search regions shrink to prune
//! ellipses as upper bounds tighten; overlapping I/O regions are fetched
//! once (integrated I/O regions); upper-bound searches are restricted to
//! the corridor of the previous round's path; and lower bounds try the
//! corridor-restricted *dummy* bound before paying for a full one.

use crate::bounds::DistRange;
use crate::config::Mr3Config;
use crate::metrics::{CpuTimer, QueryStats, StageTimes};
use crate::regions::{candidate_region, merge_regions, IoGroup};
use crate::resilience::FaultLog;
use crate::workload::SurfacePoint;
use sknn_exec::{Helpers, Offer};
use sknn_geodesic::graph::{potential, Dijkstra, DijkstraScratch, Graph, QueueCounters};
use sknn_geodesic::pathnet::{PathnetScratch, RegionNet};
use sknn_geodesic::MeshPoint;
use sknn_geom::Axis;
use sknn_geom::{Aabb3, Ellipse2, Point3, Rect2};
use sknn_multires::{
    CutCache, CutGrid, DmtmTree, FetchScratch, FrontGraph, FrontUnit, TileSpan, UnitLoad,
};
use sknn_obs::{field, Recorder};
use sknn_sdn::network::{lower_bound_with, LbScratch};
use sknn_sdn::{LineBand, LineCutCache, LineLoad, Msdn, PagedMsdn, SimplifiedLine};
use sknn_store::{PageId, PageSink, Pager, StoreResult};
use sknn_terrain::mesh::TerrainMesh;
use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Shared immutable state for ranking runs.
///
/// A context belongs to one query on one thread: `Mr3Engine::scoped` is
/// the only place one is built. Batch parallelism shares the engine,
/// never a context, which is why the per-query [`RankScratch`] can live
/// here in a `RefCell`.
pub struct RankingContext<'a, 'm> {
    /// The mesh.
    pub mesh: &'m TerrainMesh,
    /// The DMTM's resident metadata (steps, MBRs, representatives); its
    /// data comes through [`cuts`](Self::cuts).
    pub tree: &'a DmtmTree,
    /// The msdn.
    pub msdn: &'a PagedMsdn,
    /// The pager.
    pub pager: &'a Pager,
    /// The cfg.
    pub cfg: &'a Mr3Config,
    /// Trace sink ([`sknn_obs::NOOP`] when tracing is off).
    pub rec: &'a dyn Recorder,
    /// Query sequence number stamped on emitted records.
    pub query: u64,
    /// Reusable hot-path state (Dijkstra scratches, fetch buffers, the
    /// cached front and its CSR). Per-query, so it never crosses threads.
    pub scratch: RefCell<RankScratch>,
    /// Absorbed storage faults of this query (graceful degradation: a
    /// failed finer-resolution fetch keeps the last resolution's bounds).
    pub faults: FaultLog,
    /// Shared process-wide DMTM cut cache. Its unit store must hold
    /// [`tree`](Self::tree)'s units at every step of the schedule, over
    /// the same lattice as [`grid`](Self::grid).
    pub cuts: &'a CutCache,
    /// Shared process-wide MSDN line cache.
    pub lines: &'a LineCutCache,
    /// The engine's whole-terrain fronts, one per DMTM step at most.
    pub(crate) whole: &'a WholeFronts,
    /// Fetch-region canonicalizer (pad + tile-snap): every fetch asks for
    /// a canonical region, so what a cut contains — and therefore every
    /// result — does not depend on what the shared caches hold.
    pub grid: CutGrid,
    /// Wall-clock deadline of this query, checked between refinement
    /// iterations. `None` runs to convergence.
    pub deadline: Option<Instant>,
    /// Set once the deadline has been observed expired: refinement halted
    /// and the query's bounds are valid but looser than scheduled.
    pub deadline_hit: Cell<bool>,
    /// Engine scratch pool this context returns its [`RankScratch`] to on
    /// drop, its held front retired. Pooling removes the
    /// per-query allocation burst of fresh Dijkstra/fetch buffers — a
    /// measurable allocator contention point under multi-threaded batches.
    pub pool: &'a Mutex<Vec<RankScratch>>,
    /// Who runs each ranking iteration's lower-bound jobs beside the
    /// query's thread: `None` — the engine's choice — offers them to the
    /// process-wide helpers while a host thread is spare; a set given
    /// here is offered every job, whatever else runs (tests force the
    /// sharing decision with it, on with helpers and off with none).
    pub(crate) share: Option<&'a Helpers>,
}

/// Upper bound on pooled scratches — enough for any realistic thread
/// count while bounding retained buffer memory.
pub const SCRATCH_POOL_CAP: usize = 32;

impl Drop for RankingContext<'_, '_> {
    fn drop(&mut self) {
        // A panicking query may have left its scratch mid-update; let it
        // drop with the context instead of handing it to the next query.
        if std::thread::panicking() {
            return;
        }
        let mut s = std::mem::take(&mut *self.scratch.borrow_mut());
        // The held front must not carry over to a *different* query: a
        // front held under one query's key sequence could satisfy another
        // query's containment check and make its Dijkstra inputs depend on
        // query execution order, breaking bit-reproducibility. Its buffers
        // (and all the Dijkstra/fetch buffers) are worth keeping warm.
        s.retire_front();
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(s);
        }
    }
}

/// Reusable working state of the ranking hot path. Everything here is an
/// optimisation cache: dropping it between calls changes performance, not
/// results.
#[derive(Debug, Default)]
pub struct RankScratch {
    /// DMTM front held across refinement calls. Hit when the resolution
    /// step matches and the held region contains the requested one — a
    /// front fetched for an enclosing region is a superset, and every
    /// front-graph path is a real surface path, so a superset front still
    /// yields valid (if anything tighter) upper bounds. Invalidated by
    /// fetching at a different step (resolution advance) or a region the
    /// held one does not contain. Its front is shared with the engine's
    /// [`WholeFronts`] when it covers the whole terrain.
    front_cache: Option<HeldFront>,
    /// CSR buffers of the last replaced cached front this query owned
    /// alone, rebuilt in place for the next one.
    spare_csr: Graph,
    /// Dijkstra state of the per-candidate corridor/ellipse-masked runs.
    masked: DijkstraScratch,
    /// Dijkstra state of the per-group shared unrestricted run — its own,
    /// so its distances stay readable while the masked runs recycle theirs.
    shared: DijkstraScratch,
    /// Buffers for DMTM front fetches (key ordering, id→local index,
    /// edge/position vectors), recycled from replaced cached fronts.
    fetch: FetchScratch,
    /// Layer table and Dijkstra buffers for the lower-bound jobs this
    /// thread runs (each helper keeps its own).
    lb: LbScratch,
    /// State of the per-group in-place pathnet run.
    pathnet: PathnetScratch,
}

/// A front derived from the shared cache's resident units, and the one
/// CSR adjacency every Dijkstra over it runs on, built when it is derived.
/// Its edge list went back to the fetch buffers once the CSR was built.
#[derive(Debug)]
pub(crate) struct CachedFront {
    step: u32,
    graph: FrontGraph,
    csr: Graph,
    /// Of a whole-terrain front, per node the lattice tiles its MBR meets
    /// ([`CutGrid::tiles_meeting`] as `[x0, x1, y0, y1]`, half-open, read
    /// off the units by [`FetchScratch::tile_ranges`]): the rule the unit
    /// store places nodes into tiles by, so the nodes whose tiles meet a
    /// span are exactly those the span's units hold. `None` for a front
    /// derived over a region.
    tiles: Option<Vec<[u16; 4]>>,
}

/// The front a query holds, and the span of the region it stands for: its
/// own derived front over that span, or a whole-terrain front viewed
/// through the span.
#[derive(Debug)]
struct HeldFront {
    front: Arc<CachedFront>,
    span: TileSpan,
}

impl HeldFront {
    /// What a plan knows of it.
    fn holding(&self) -> Holding {
        Holding { step: self.front.step, span: self.span, whole: self.front.tiles.is_some() }
    }

    /// The nodes a run over the held span may enter: `None` when that is
    /// every node of the front — a front derived over the span, or a
    /// whole-terrain front held for the whole lattice.
    fn mask(&self, full: TileSpan) -> Option<Mask<'_>> {
        let tiles = self.front.tiles.as_deref()?;
        (self.span != full).then_some(Mask { tiles, span: self.span })
    }
}

/// The step and region of the front a query holds, and whether it is a
/// whole-terrain front: what a plan tracks group by group.
#[derive(Debug, Clone, Copy)]
struct Holding {
    step: u32,
    span: TileSpan,
    whole: bool,
}

/// A view of a whole-terrain front: its nodes whose tiles meet `span`.
/// Those are the nodes [`FrontGraph::derive`] takes from the span's units,
/// in the same ascending order, and every unit holds a node's whole entry
/// list, so the view's links are the derived front's links. A run that
/// enters only the view's nodes settles, relaxes and ties as it does over
/// the derived front (DESIGN §16).
#[derive(Debug, Clone, Copy)]
struct Mask<'f> {
    tiles: &'f [[u16; 4]],
    span: TileSpan,
}

impl Mask<'_> {
    fn admits(&self, local: usize) -> bool {
        let [x0, x1, y0, y1] = self.tiles[local].map(usize::from);
        let s = self.span;
        x0 < s.x1 && s.x0 < x1 && y0 < s.y1 && s.y0 < y1
    }
}

/// Whether a run may enter node `local`: every node without a mask.
fn admits(mask: Option<Mask<'_>>, local: usize) -> bool {
    mask.is_none_or(|m| m.admits(local))
}

/// The engine's whole-terrain fronts: at most one per DMTM step, each
/// published by the first query that derived it and reused by every later
/// one. Units are canonical per `(step, tile)`, so the front over the
/// whole lattice at a step is a pure function of the step, and a shared
/// front is bit-identical to the one a query would derive (DESIGN §16).
/// Bounded by the schedule's steps; [`clear`](Self::clear) empties it.
#[derive(Debug, Default)]
pub(crate) struct WholeFronts(Mutex<Vec<Arc<CachedFront>>>);

impl WholeFronts {
    /// The front at step `m`, if one is published.
    fn get(&self, m: u32) -> Option<Arc<CachedFront>> {
        self.fronts().iter().find(|f| f.step == m).cloned()
    }

    /// Publish `front` unless its step already holds one: of two racing
    /// derivations the first is kept (both are bit-identical).
    fn publish(&self, front: &Arc<CachedFront>) {
        let mut fronts = self.fronts();
        if fronts.iter().all(|f| f.step != front.step) {
            fronts.push(Arc::clone(front));
        }
    }

    /// Drop every front (queries holding one keep theirs).
    pub(crate) fn clear(&self) {
        self.fronts().clear();
    }

    /// The steps that hold a front, in publish order.
    pub(crate) fn steps(&self) -> Vec<u32> {
        self.fronts().iter().map(|f| f.step).collect()
    }

    fn fronts(&self) -> std::sync::MutexGuard<'_, Vec<Arc<CachedFront>>> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Where one group's front at the iteration's DMTM step comes from.
enum GroupFront {
    /// The query's held front contains the group's region: the group
    /// runs on it as held, through the region it holds.
    Cached,
    /// A whole-terrain front at the step viewed through the group's span:
    /// the engine's table's, or with `None` the one the query holds when
    /// the group's turn comes (an earlier group may derive it).
    View { front: Option<Arc<CachedFront>>, span: TileSpan },
    /// Derived from the units the plan read: over the group's span, or
    /// with `whole` over the whole lattice, then published to the
    /// engine's table and viewed through the span.
    Derive { span: TileSpan, units: Vec<Arc<FrontUnit>>, whole: bool },
}

/// The lines of one axis band: `Arc`s out of the shared line cache.
type LineSet = Vec<Arc<SimplifiedLine>>;

/// What one iteration's plan read, handed to its phases: no phase looks a
/// key up in a shared cache or reads a page of its own.
struct IterationFetch {
    /// The iteration's DMTM step; `None` at a pathnet level.
    step: Option<u32>,
    /// Per group, where its front comes from; empty at a pathnet level.
    fronts: Vec<GroupFront>,
    /// Per group, its X and Y lines (none without a lower-bound phase).
    lines: Vec<[LineSet; 2]>,
}

/// Which MSDN lines a run's iterations plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinePlan {
    /// Each group's X and Y bands at the iteration's level, for its
    /// lower-bound phase: ranking and range runs.
    Bands,
    /// None: a radius run with no ranking run after it in the query.
    Skip,
    /// None of its own, but a bounded batch that stalls also carries the
    /// lines the ranking run after it in the query asks for first (see
    /// [`RankingContext::plan_iteration`]): a radius run before step 4.
    RankAhead,
}

impl RankScratch {
    /// Drop the cached front, keeping its buffers for the next fetch — if
    /// no one else holds it — so steady-state refinement allocates nothing
    /// per fetch.
    fn retire_front(&mut self) {
        if let Some(old) = self.front_cache.take().and_then(|held| Arc::into_inner(held.front)) {
            self.fetch.recycle(old.graph);
            self.spare_csr = old.csr;
        }
    }
}

/// The counters a traced iteration starts from: the query's stats, and
/// its pager window's physical reads and stalled batches. The `iter`
/// event carries the differences, so it holds the iteration's own work.
type IterStart = (QueryStats, u64, u64);

/// Per-candidate ranking state.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Object identifier.
    pub id: u32,
    /// Position on the surface.
    pub point: SurfacePoint,
    /// The range.
    pub range: DistRange,
    /// Current I/O region (prune-ellipse MBR clipped to the terrain).
    pub region: Rect2,
    /// Witness chain of the last full lower bound (for the dummy bound),
    /// shared with the lower-bound job that reads it.
    lb_path: Arc<[Aabb3]>,
    /// Refined search region: MBRs along the last upper-bound path.
    corridor: Vec<Rect2>,
    /// Permanently eliminated from the top k.
    pub out: bool,
}

impl Candidate {
    /// Creates the value from its parts.
    pub fn new(q: &SurfacePoint, id: u32, point: SurfacePoint, terrain: &Rect2) -> Self {
        let mut range = DistRange::unbounded();
        // "The lower bound for each candidate point is initially set to be
        // the Euclidean distance" (§4.2).
        range.tighten_lb(q.pos.dist(point.pos));
        // Same-facet candidates are exact: the straight segment lies on
        // the facet plane, hence on the surface.
        if q.tri == point.tri {
            range.tighten_ub(q.pos.dist(point.pos));
        }
        Self {
            id,
            point,
            range,
            region: *terrain,
            lb_path: Arc::new([]),
            corridor: Vec::new(),
            out: false,
        }
    }
}

impl<'a, 'm> RankingContext<'a, 'm> {
    /// Record one absorbed storage fault: the failed fetch is skipped, the
    /// affected candidates keep the last materialised resolution's (valid,
    /// looser) bounds, and the event lands in the trace when enabled.
    fn absorb_fault(&self, phase: &'static str, err: sknn_store::StoreError) {
        self.faults.absorb(phase, err);
        if self.rec.enabled() {
            let kind = match err {
                sknn_store::StoreError::Checksum { .. } => "checksum",
                sknn_store::StoreError::TransientRead { .. } => "transient",
                sknn_store::StoreError::PermanentRead { .. } => "permanent",
                sknn_store::StoreError::FsyncFailed { .. } => "fsync",
            };
            self.rec.event(
                "fault",
                self.query,
                vec![
                    field("phase", phase),
                    field("page", err.page()),
                    field("kind", kind),
                    field("absorbed", self.faults.count()),
                ],
            );
        }
    }

    /// Whether this query's deadline has passed. Evaluated between
    /// refinement iterations only — never inside a bound estimation — so
    /// an expired query always stops at a materialised resolution whose
    /// bounds are valid, just looser than the schedule would deliver.
    /// Latches [`deadline_hit`](Self::deadline_hit) on first expiry so the
    /// engine can mark the result degraded.
    pub fn deadline_expired(&self) -> bool {
        match self.deadline {
            Some(d) if Instant::now() >= d => {
                self.deadline_hit.set(true);
                true
            }
            _ => false,
        }
    }

    /// Rank `cands` until the top `k` separate or the schedule is
    /// exhausted. Returns whether the ranking fully resolved. On exit the
    /// candidates' ranges hold the final bounds.
    pub fn rank_top_k(
        &self,
        q: &SurfacePoint,
        cands: &mut [Candidate],
        k: usize,
        stats: &mut QueryStats,
    ) -> bool {
        for i in 0..self.cfg.schedule.len() {
            self.mark_out(cands, k);
            if self.is_resolved(cands, k) {
                return true;
            }
            if self.faults.exceeded() || self.deadline_expired() {
                break;
            }
            let start = self.iter_start(stats);
            self.refine_iteration(q, cands, i, LinePlan::Bands, stats);
            stats.iterations += 1;
            if let Some(start) = &start {
                // Apply this round's eliminations before observing, so the
                // event reflects the post-iteration state. `mark_out` is
                // idempotent — the next loop head repeats it harmlessly.
                self.mark_out(cands, k);
                self.emit_iter("rank", i, k, cands, self.is_resolved(cands, k), start, stats);
            }
        }
        self.mark_out(cands, k);
        self.is_resolved(cands, k)
    }

    /// Step-2 variant: tighten upper bounds of the seed set until the k-th
    /// radius stops improving, and return `max ub` — a safe radius that
    /// certainly contains k objects by surface distance. Lower bounds are
    /// not needed to bound a radius, so the MSDN phase is skipped.
    ///
    /// With `rank_follows` — step 4 ranks the step-3 candidates in the
    /// same query — a bounded batch that stalls also carries the lines
    /// that ranking run's first two iterations ask for.
    pub fn estimate_radius(
        &self,
        q: &SurfacePoint,
        cands: &mut [Candidate],
        rank_follows: bool,
        stats: &mut QueryStats,
    ) -> f64 {
        let plan = if rank_follows { LinePlan::RankAhead } else { LinePlan::Skip };
        let mut prev = f64::INFINITY;
        for i in 0..self.cfg.schedule.len() {
            // Radius estimation must deliver at least one finite upper
            // bound or step 3 degenerates to ranking the whole scene, so
            // the deadline only halts it after a usable radius exists.
            if self.faults.exceeded() || (prev.is_finite() && self.deadline_expired()) {
                break;
            }
            let start = self.iter_start(stats);
            self.refine_iteration(q, cands, i, plan, stats);
            stats.iterations += 1;
            let radius = max_ub(cands);
            let done = radius.is_finite() && radius >= prev * 0.95;
            if let Some(start) = &start {
                self.emit_iter("radius", i, cands.len(), cands, done, start, stats);
            }
            if done {
                return radius;
            }
            prev = radius;
        }
        max_ub(cands)
    }

    /// Surface *range query* support (paper §6: the framework "is capable
    /// of supporting other distance comparison based queries, such as
    /// range queries"): decide for each candidate whether its surface
    /// distance is within `radius`. Returns `(inside, undecided)` object
    /// ids; `undecided` is non-empty only when the schedule ends with a
    /// range still straddling the radius (its midpoint then classifies it
    /// in `inside` if ≤ radius).
    pub fn resolve_within(
        &self,
        q: &SurfacePoint,
        cands: &mut [Candidate],
        radius: f64,
        stats: &mut QueryStats,
    ) -> (Vec<u32>, Vec<u32>) {
        let mut inside: Vec<u32> = Vec::new();
        let classify = |cands: &mut [Candidate], inside: &mut Vec<u32>| {
            for c in cands.iter_mut() {
                if c.out {
                    continue;
                }
                if c.range.ub <= radius + 1e-9 {
                    inside.push(c.id);
                    c.out = true; // settled: no more refinement needed
                } else if c.range.lb > radius + 1e-9 {
                    c.out = true; // settled: certainly outside
                }
            }
        };
        classify(cands, &mut inside);
        for i in 0..self.cfg.schedule.len() {
            if cands.iter().all(|c| c.out) || self.faults.exceeded() || self.deadline_expired() {
                break;
            }
            let start = self.iter_start(stats);
            self.refine_iteration(q, cands, i, LinePlan::Bands, stats);
            stats.iterations += 1;
            classify(cands, &mut inside);
            if let Some(start) = &start {
                let done = cands.iter().all(|c| c.out);
                self.emit_iter("range", i, cands.len(), cands, done, start, stats);
            }
        }
        let mut undecided = Vec::new();
        for c in cands.iter() {
            if !c.out {
                if c.range.estimate() <= radius {
                    inside.push(c.id);
                }
                undecided.push(c.id);
            }
        }
        inside.sort_unstable();
        (inside, undecided)
    }

    // ----- termination & elimination ------------------------------------

    /// k-th smallest upper bound among non-eliminated candidates.
    fn kth_ub(&self, cands: &[Candidate], k: usize) -> f64 {
        let mut ubs: Vec<f64> = cands.iter().filter(|c| !c.out).map(|c| c.range.ub).collect();
        if ubs.len() <= k {
            return f64::INFINITY;
        }
        // Only the k-th order statistic is needed, not the full order:
        // quickselect is O(n) against the old sort's O(n log n), and this
        // runs every iteration over every candidate set.
        let (_, kth, _) = ubs.select_nth_unstable_by(k - 1, f64::total_cmp);
        *kth
    }

    /// Drop candidates that can no longer be in the top k.
    fn mark_out(&self, cands: &mut [Candidate], k: usize) {
        let pivot = self.kth_ub(cands, k);
        if !pivot.is_finite() {
            return;
        }
        for c in cands.iter_mut() {
            if !c.out && c.range.lb > pivot + 1e-9 {
                c.out = true;
            }
        }
    }

    /// The VA-file termination test: the k-th upper bound does not exceed
    /// the (k+1)-th lower bound.
    fn is_resolved(&self, cands: &[Candidate], k: usize) -> bool {
        let mut alive: Vec<(f64, usize)> = cands
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.out)
            .map(|(i, c)| (c.range.ub, i))
            .collect();
        if alive.len() <= k {
            return true;
        }
        // Only the split at rank k is needed, not the order: ties in the
        // upper bound break by position, so `rest` is what a stable sort
        // would leave beyond the first k.
        let (_, kth, rest) =
            alive.select_nth_unstable_by(k - 1, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let kth_ub = kth.0;
        if !kth_ub.is_finite() {
            return false;
        }
        let min_rest_lb =
            rest.iter().map(|&(_, i)| cands[i].range.lb).fold(f64::INFINITY, f64::min);
        kth_ub <= min_rest_lb + 1e-9
    }

    // ----- trace emission -------------------------------------------------

    /// What an iteration's `iter` event diffs against; `None`, and no
    /// pager read, when tracing is off.
    fn iter_start(&self, stats: &QueryStats) -> Option<IterStart> {
        let pager = self.pager;
        self.rec.enabled().then(|| (*stats, pager.stats().physical_reads, pager.stalled_batches()))
    }

    /// Emit one `iter` trace event describing the post-iteration state.
    ///
    /// The bound fields are chosen for their convergence guarantees:
    /// `kth_ub` (k-th smallest upper bound among alive candidates) is
    /// non-increasing — upper bounds only tighten, and eliminated
    /// candidates were ranked beyond k; `next_lb` ((k+1)-th smallest lower
    /// bound over *all* candidates, alive or not) is non-decreasing —
    /// lower bounds only tighten over a fixed set. `resolve_lb` is the
    /// actual VA-file termination quantity (minimum lower bound among
    /// alive candidates ranked beyond k by upper bound); it is what
    /// `kth_ub` must drop below, but is not itself monotone because the
    /// set it minimises over shrinks. `pages` and `stalls` are the
    /// physical reads and stalled batches this query charged during the
    /// iteration, read from the pager window its thread opened at query
    /// start: exact whatever runs beside it. `ahead_pages` are the
    /// pages of the iteration's batch only its look-ahead asked for —
    /// a radius iteration's include the lines it carried for the ranking
    /// run — and `ahead_steps` the later schedule steps of its own run
    /// that look-ahead carried. `fetch_read_us`, `fetch_decode_us` and
    /// `fetch_derive_us` are the iteration's share of the three fetch
    /// clocks of [`StageTimes`], and `lb_jobs_shared` its lower-bound
    /// jobs whose result a helper thread computed. `shared_fronts` are its
    /// groups a view of a whole-terrain front served, `derived_fronts` the
    /// fronts it derived from units, and `whole_fronts` its groups over
    /// the whole terrain that the query's held front did not serve.
    #[allow(clippy::too_many_arguments)]
    fn emit_iter(
        &self,
        phase: &'static str,
        i: usize,
        k: usize,
        cands: &[Candidate],
        resolved: bool,
        start: &IterStart,
        stats: &QueryStats,
    ) {
        let (snap, pages, stalls) = start;
        let alive = cands.iter().filter(|c| !c.out).count();
        let mut alive_ubs: Vec<f64> = cands.iter().filter(|c| !c.out).map(|c| c.range.ub).collect();
        alive_ubs.sort_by(f64::total_cmp);
        let kth_ub = match alive_ubs.len() {
            0 => f64::INFINITY,
            n => alive_ubs[k.clamp(1, n) - 1],
        };
        let mut all_lbs: Vec<f64> = cands.iter().map(|c| c.range.lb).collect();
        all_lbs.sort_by(f64::total_cmp);
        let next_lb = all_lbs.get(k).copied().unwrap_or(f64::INFINITY);
        let resolve_lb = {
            let mut by_ub: Vec<&Candidate> = cands.iter().filter(|c| !c.out).collect();
            by_ub.sort_by(|a, b| a.range.ub.total_cmp(&b.range.ub));
            by_ub.get(k..).unwrap_or(&[]).iter().map(|c| c.range.lb).fold(f64::INFINITY, f64::min)
        };
        self.rec.event(
            "iter",
            self.query,
            vec![
                field("phase", phase),
                field("i", i),
                field("dmtm_frac", self.cfg.schedule.dmtm[i]),
                field("msdn_level", self.cfg.schedule.msdn_level(i) as u64),
                field("alive", alive),
                field("kth_ub", kth_ub),
                field("next_lb", next_lb),
                field("resolve_lb", resolve_lb),
                field("resolved", resolved),
                field("ub_est", stats.ub_estimations - snap.ub_estimations),
                field("lb_est", stats.lb_estimations - snap.lb_estimations),
                field("dummy_lb", stats.dummy_lb_hits - snap.dummy_lb_hits),
                field("lb_jobs_shared", stats.lb_jobs_shared - snap.lb_jobs_shared),
                field("shared_fronts", stats.shared_fronts - snap.shared_fronts),
                field("derived_fronts", stats.derived_fronts - snap.derived_fronts),
                field("whole_fronts", stats.whole_fronts - snap.whole_fronts),
                field("settled", stats.settled - snap.settled),
                field("pages", self.pager.stats().physical_reads - pages),
                field("stalls", self.pager.stalled_batches() - stalls),
                field("ahead_pages", stats.ahead_pages - snap.ahead_pages),
                field("ahead_steps", stats.ahead_steps - snap.ahead_steps),
                field("fetch_read_us", stats.stages.fetch_read_us - snap.stages.fetch_read_us),
                field(
                    "fetch_decode_us",
                    stats.stages.fetch_decode_us - snap.stages.fetch_decode_us,
                ),
                field(
                    "fetch_derive_us",
                    stats.stages.fetch_derive_us - snap.stages.fetch_derive_us,
                ),
            ],
        );
    }

    // ----- one resolution iteration --------------------------------------

    fn refine_iteration(
        &self,
        q: &SurfacePoint,
        cands: &mut [Candidate],
        iter: usize,
        plan: LinePlan,
        stats: &mut QueryStats,
    ) {
        let Some((groups, members)) = self.group_iteration(q, cands) else { return };
        let planned = self.plan_iteration(q, cands, &groups, &members, iter, plan, stats);
        let IterationFetch { step, fronts, lines } = match planned {
            Ok(fetch) => fetch,
            Err(e) => {
                // A failed read degrades the whole iteration: every
                // candidate keeps its current (valid) bounds, and no front
                // is cached.
                self.scratch.borrow_mut().retire_front();
                self.absorb_fault("iter", e);
                return;
            }
        };
        // Each member's lower-bound job reads its region, `lb` and witness
        // chain and its group's lines: nothing the upper-bound phase
        // writes (it tightens `ub` and the corridor only, and
        // `tighten_ub` never moves `lb`). So the jobs are offered to
        // spare cores before that phase and their results applied after
        // it, in member order, exactly where they were computed before.
        let lb = (plan == LinePlan::Bands).then(|| self.offer_lb(q, cands, &members, lines));
        let mut fronts = fronts.into_iter();
        for (group, members) in groups.iter().zip(&members) {
            // The front phase times its derivation and CSR build into
            // `rank_fetch_us`; the rest of the group's time is bound
            // computation.
            let start = Instant::now();
            let fetch_before = stats.stages.rank_fetch_us;
            match (step, fronts.next()) {
                (Some(m), Some(front)) => self.ub_phase_front(q, cands, members, m, front, stats),
                _ => self.ub_phase_pathnet(q, cands, members, group.region, stats),
            }
            let compute = us_since(start).saturating_sub(stats.stages.rank_fetch_us - fetch_before);
            if step.is_some() {
                stats.stages.rank_ub_us += compute;
            } else {
                stats.stages.rank_pathnet_us += compute;
            }
        }
        if let Some(offer) = lb {
            self.apply_lb(cands, &members, &offer, stats);
        }
    }

    /// Offer one lower-bound job per member, in member order: to every
    /// helper of [`share`](Self::share) when one is given, else to the
    /// process-wide helpers while a host thread is spare. Integrated I/O
    /// for SDN data too: each group's lines move into one `Arc` its
    /// members' jobs share, and each job slices its own from them.
    fn offer_lb(
        &self,
        q: &SurfacePoint,
        cands: &[Candidate],
        members: &[Vec<usize>],
        lines: Vec<[LineSet; 2]>,
    ) -> Offer<LbJob, LbOut, LbScratch> {
        let width = self.mesh.mean_edge_length() * 2.0;
        let mut jobs = Vec::with_capacity(members.iter().map(Vec::len).sum());
        for (members, lines) in members.iter().zip(lines) {
            let lines = Arc::new(lines);
            jobs.extend(members.iter().map(|&ci| {
                let c = &cands[ci];
                let dummy = self.cfg.dummy_lower_bound && !c.lb_path.is_empty();
                LbJob {
                    lines: Arc::clone(&lines),
                    q: q.pos,
                    c: c.point.pos,
                    roi: c.region,
                    lb: c.range.lb,
                    corridor: dummy.then(|| (Arc::clone(&c.lb_path), width)),
                }
            }));
        }
        match self.share {
            None => Helpers::offer_spare(jobs, lb_job),
            Some(helpers) => helpers.offer(jobs, lb_job, helpers.threads()),
        }
    }

    /// Finish the offered lower-bound jobs on this thread (never waiting
    /// on a helper) and apply their results in member order. A helper's
    /// job adds its thread CPU time to the query's.
    fn apply_lb(
        &self,
        cands: &mut [Candidate],
        members: &[Vec<usize>],
        offer: &Offer<LbJob, LbOut, LbScratch>,
        stats: &mut QueryStats,
    ) {
        let scratch = &mut self.scratch.borrow_mut().lb;
        for (done, &ci) in offer.finish(scratch).zip(members.iter().flatten()) {
            let out = done.value;
            stats.settled += out.settled;
            stats.absorb_queue(&out.queue);
            stats.stages.rank_lb_us += out.us;
            if done.helped {
                stats.lb_jobs_shared += 1;
                stats.cpu += out.cpu;
            }
            match &out.full {
                None => stats.dummy_lb_hits += 1,
                Some((value, path)) => {
                    stats.lb_estimations += 1;
                    cands[ci].range.tighten_lb(*value);
                    cands[ci].lb_path = Arc::clone(path);
                }
            }
        }
    }

    /// An iteration's grouping and [`plan`](Self::plan_iteration) with
    /// no phase after it: what a ranking iteration pays before its first
    /// bound — and with `derive`, each group's front derivation and CSR
    /// build too: its whole fetch. Returns the number of I/O groups.
    pub(crate) fn plan_only(
        &self,
        q: &SurfacePoint,
        cands: &mut [Candidate],
        iter: usize,
        derive: bool,
        stats: &mut QueryStats,
    ) -> StoreResult<usize> {
        let Some((groups, members)) = self.group_iteration(q, cands) else { return Ok(0) };
        let fetch =
            self.plan_iteration(q, cands, &groups, &members, iter, LinePlan::Bands, stats)?;
        if let (true, Some(m)) = (derive, fetch.step) {
            for front in fetch.fronts {
                self.hold_front(m, front, stats);
            }
        }
        Ok(groups.len())
    }

    /// The upper-bound phase of an iteration's first I/O group after its
    /// plan, over the front the plan serves it. Returns the nodes the
    /// phase settled.
    pub(crate) fn bound_first_group(
        &self,
        q: &SurfacePoint,
        cands: &mut [Candidate],
        iter: usize,
        stats: &mut QueryStats,
    ) -> StoreResult<usize> {
        let Some((groups, members)) = self.group_iteration(q, cands) else { return Ok(0) };
        let fetch =
            self.plan_iteration(q, cands, &groups, &members, iter, LinePlan::Skip, stats)?;
        let (Some(m), Some(front)) = (fetch.step, fetch.fronts.into_iter().next()) else {
            return Ok(0);
        };
        let settled = stats.settled;
        self.ub_phase_front(q, cands, &members[0], m, front, stats);
        Ok(stats.settled - settled)
    }

    /// Refresh the active candidates' I/O regions from their upper bounds
    /// and merge them into integrated I/O groups: the groups, and per
    /// group its members as indices into `cands`. `None` when no
    /// candidate is active.
    fn group_iteration(
        &self,
        q: &SurfacePoint,
        cands: &mut [Candidate],
    ) -> Option<(Vec<IoGroup>, Vec<Vec<usize>>)> {
        let terrain = self.mesh.extent();
        let active: Vec<usize> = (0..cands.len()).filter(|&i| !cands[i].out).collect();
        if active.is_empty() {
            return None;
        }
        for &i in &active {
            cands[i].region = if self.cfg.ellipse_prune {
                candidate_region(q.pos.xy(), cands[i].point.pos.xy(), cands[i].range.ub, &terrain)
            } else {
                terrain
            };
        }

        // Integrated I/O regions: merged once "significantly overlapped
        // (e.g., over 80%)" (§4.2).
        const IO_MERGE_THRESHOLD: f64 = 0.8;
        let regions: Vec<Rect2> = active.iter().map(|&i| cands[i].region).collect();
        let threshold = if self.cfg.integrated_io {
            IO_MERGE_THRESHOLD
        } else {
            2.0 // never merges
        };
        let groups: Vec<IoGroup> = merge_regions(&regions, threshold);
        let members =
            groups.iter().map(|g| g.members.iter().map(|&gi| active[gi]).collect()).collect();
        Some((groups, members))
    }

    /// Plan and read one iteration's whole fetch, before any bound is
    /// computed: every group's DMTM units — unless the held front or a
    /// view through the group's span of the whole-terrain front at the
    /// step (the held one or the engine's table's) will serve the group,
    /// decided group by group by [`front_source`](Self::front_source), as
    /// [`ub_phase_front`](Self::ub_phase_front) then consumes the plan —
    /// and, with [`LinePlan::Bands`], every group's X and Y line bands at
    /// the iteration's MSDN level. The keys nobody holds are claimed in both
    /// shared caches and the union of their pages is read in **one**
    /// batch. Each loaded key is credited to the first group or band that
    /// asked for it.
    ///
    /// A batch that has pages to read stalls anyway, so it also carries
    /// later schedule steps' keys over this iteration's groups (the
    /// look-ahead): every group's units at each later step, and its bands
    /// at each later MSDN level, each step and level once and only where
    /// it differs from this iteration's. Once every member's upper bound
    /// is finite, every region is a prune ellipse's MBR, and regions only
    /// shrink as bounds tighten while the alive set only shrinks: the
    /// batch carries the rest of the schedule, and the run's later
    /// iterations find most of their keys resident. While some region is
    /// still the whole terrain — a run's first iteration — it carries the
    /// next step only.
    ///
    /// With [`LinePlan::RankAhead`] a bounded radius batch that stalls
    /// also carries the lines the ranking run after it asks for in its
    /// first two iterations: every line at those iterations' MSDN levels
    /// in the snapped band `[q − r, q + r]` of either axis, `r` the
    /// seeds' current largest upper bound. Upper bounds only shrink, so
    /// the step-3 radius is at most `r`; every step-3 candidate then lies
    /// within `r` of the query on both axes, so its dominant-axis interval
    /// lies in `[q − r, q + r]`, and snapping is monotone: the ranking
    /// run's bands lie in the carried ones (DESIGN §16).
    ///
    /// Every claim of the batch is published before any key led by
    /// another thread is waited on; the look-ahead's loads are dropped
    /// unfinished, so nothing of them is ever waited on.
    ///
    /// On `Err` nothing of the batch is published and no latch is left. A
    /// failure on a page only the look-ahead asked for drops every
    /// look-ahead load and reads the iteration's own keys alone: only a
    /// failure of its own keys degrades the iteration.
    ///
    /// Its wall time goes to `rank_fetch_us`, split by a [`FetchClock`].
    #[allow(clippy::too_many_arguments)]
    fn plan_iteration(
        &self,
        q: &SurfacePoint,
        cands: &[Candidate],
        groups: &[IoGroup],
        members: &[Vec<usize>],
        iter: usize,
        plan: LinePlan,
        stats: &mut QueryStats,
    ) -> StoreResult<IterationFetch> {
        let clock = FetchClock::start(self.pager);
        let fetch = self.plan_batch(q, cands, groups, members, iter, plan, &clock, stats);
        clock.stop(self.pager, &mut stats.stages);
        fetch
    }

    /// [`plan_iteration`](Self::plan_iteration) under `clock`.
    #[allow(clippy::too_many_arguments)]
    fn plan_batch(
        &self,
        q: &SurfacePoint,
        cands: &[Candidate],
        groups: &[IoGroup],
        members: &[Vec<usize>],
        iter: usize,
        plan: LinePlan,
        clock: &FetchClock,
        stats: &mut QueryStats,
    ) -> StoreResult<IterationFetch> {
        let with_lb = plan == LinePlan::Bands;
        let (step, m) = self.step_of(iter);
        // Canonical fetch regions (pad + tile-snap), so hot neighbourhoods
        // converge onto a small set of reusable keys.
        let spans: Vec<TileSpan> = groups.iter().map(|g| self.grid.span(&g.region)).collect();
        let rois: Vec<Rect2> = spans.iter().map(|&s| self.grid.span_rect(s)).collect();

        // Front cache: rebuilding the front per group per iteration is the
        // dominant redundant work — the step repeats across consecutive
        // schedule levels and regions only shrink, so a previously fetched
        // front frequently covers the request outright. A group whose
        // front misses leaves its own front held for the next group. Every
        // other group views the whole-terrain front at the step, which the
        // engine's table serves once any query derived it. A pathnet level
        // reads every group's units (its charge).
        let mut held = self.scratch.borrow().front_cache.as_ref().map(HeldFront::holding);
        let mut asks: Vec<GroupFront> = Vec::with_capacity(groups.len());
        let mut asked: Vec<TileSpan> = Vec::with_capacity(groups.len());
        for &span in &spans {
            let ask = step.map(|m| self.front_source(m, span, &mut held));
            match ask {
                None | Some(GroupFront::Derive { whole: false, .. }) => asked.push(span),
                Some(GroupFront::Derive { whole: true, .. }) => asked.push(self.grid.full_span()),
                Some(_) => {}
            }
            asks.extend(ask);
        }

        let (band_of, bands) = if with_lb {
            self.line_bands(q, cands, members, &rois)
        } else {
            (Vec::new(), Vec::new())
        };

        let mut units = self.cuts.claim(m, &asked);
        let level = self.cfg.schedule.msdn_level(iter);
        let mut lines = with_lb.then(|| self.lines.claim(self.msdn, level, &bands));

        // The later schedule steps the batch carries, if it stalls: the
        // rest of the schedule once every member's upper bound is finite
        // (every region is a prune-ellipse MBR, and those only shrink),
        // else only the next step (a region is still the whole terrain).
        let stalls =
            !units.pages().is_empty() || lines.as_ref().is_some_and(|l| !l.pages().is_empty());
        let bounded = members.iter().flatten().all(|&ci| cands[ci].range.ub.is_finite());
        let rest = self.cfg.schedule.len() - iter - 1;
        let carried = if !stalls {
            0
        } else if bounded {
            rest
        } else {
            rest.min(1)
        };
        // Each step and level once, and none this batch already claims.
        let mut ahead_units: Vec<(u32, UnitLoad)> = Vec::new();
        let mut ahead_lines: Vec<(usize, LineLoad)> = Vec::new();
        for n in iter + 1..=iter + carried {
            let s = self.step_of(n).1;
            if s != m && ahead_units.iter().all(|(t, _)| *t != s) {
                ahead_units.push((s, self.cuts.claim(s, &spans)));
            }
            let l = self.cfg.schedule.msdn_level(n);
            if with_lb && l != level && ahead_lines.iter().all(|(t, _)| *t != l) {
                ahead_lines.push((l, self.lines.claim(self.msdn, l, &bands)));
            }
        }
        if plan == LinePlan::RankAhead && stalls && bounded {
            let r = max_ub(cands);
            let disc = [(0, Axis::X), (1, Axis::Y)].map(|(slot, axis)| {
                let c = axis.coord(q.pos);
                let (lo, hi) = self.grid.snap_band(slot, c - r, c + r);
                LineBand { axis, lo, hi, roi: None }
            });
            for l in [0, 1].map(|n| self.cfg.schedule.msdn_level(n)) {
                if ahead_lines.iter().all(|(t, _)| *t != l) {
                    ahead_lines.push((l, self.lines.claim(self.msdn, l, &disc)));
                }
            }
        }
        let batch = {
            let mut sinks: Vec<&mut dyn PageSink> = vec![&mut units];
            sinks.extend(lines.as_mut().map(|l| l as &mut dyn PageSink));
            sinks.extend(ahead_units.iter_mut().map(|(_, l)| l as &mut dyn PageSink));
            sinks.extend(ahead_lines.iter_mut().map(|(_, l)| l as &mut dyn PageSink));
            clock.read(self.pager, sinks)
        };
        if let Err(e) = batch {
            let page = PageId(e.page());
            let own = units.pages().binary_search(&page).is_ok()
                || lines.as_ref().is_some_and(|l| l.pages().binary_search(&page).is_ok());
            if own {
                return Err(e);
            }
            // Unlatch every look-ahead key (the iteration that asks for
            // the page meets the fault itself) and read this iteration's
            // keys alone.
            (ahead_units, ahead_lines) = (Vec::new(), Vec::new());
            let mut sinks: Vec<&mut dyn PageSink> = vec![&mut units];
            sinks.extend(lines.as_mut().map(|l| l as &mut dyn PageSink));
            clock.read(self.pager, sinks)?;
        }
        clock.decode(self.pager, || {
            units.publish();
            if let Some(lines) = lines.as_mut() {
                lines.publish();
            }
        });
        if !ahead_units.is_empty() || !ahead_lines.is_empty() {
            let mut own: Vec<PageId> = units.pages().to_vec();
            own.extend(lines.iter().flat_map(|l| l.pages()));
            own.sort_unstable();
            let ahead = ahead_units.iter().flat_map(|(_, a)| a.pages());
            let ahead = ahead.chain(ahead_lines.iter().flat_map(|(_, a)| a.pages()));
            stats.ahead_pages += ahead.filter(|p| own.binary_search(p).is_err()).count() as u64;
            stats.ahead_steps += carried;
            clock.decode(self.pager, || {
                ahead_units.iter_mut().for_each(|(_, a)| a.publish());
                ahead_lines.iter_mut().for_each(|(_, a)| a.publish());
            });
        }
        let (units, mut lines) = clock.decode(self.pager, || {
            let units = units.finish(self.pager)?;
            let lines = lines.map(|l| l.finish(self.pager)).transpose()?.unwrap_or_default();
            StoreResult::Ok((units, lines))
        })?;
        for &hit in units.iter().map(|(_, hit)| hit).chain(lines.iter().map(|(_, hit)| hit)) {
            count_cut_fetch(stats, hit);
        }
        let mut read = units.into_iter().map(|(units, _)| units);
        for ask in &mut asks {
            if let GroupFront::Derive { units, .. } = ask {
                *units = read.next().expect("one unit list per derived group");
            }
        }
        let lines = band_of
            .iter()
            .map(|slots| {
                slots.map(|b| b.map_or_else(Vec::new, |b| std::mem::take(&mut lines[b].0)))
            })
            .collect();
        Ok(IterationFetch { step, fronts: asks, lines })
    }

    /// Iteration `iter`'s DMTM step — `None` at a pathnet level, which
    /// derives its graph from the mesh in memory — and the step whose
    /// units it reads: a pathnet level charges the region's leaf units
    /// (step 0).
    fn step_of(&self, iter: usize) -> (Option<u32>, u32) {
        let frac = self.cfg.schedule.dmtm[iter];
        let step = (frac <= 1.0).then(|| self.tree.step_for_fraction(frac));
        (step, step.unwrap_or(0))
    }

    /// Where a group's front at step `m` over `span` comes from, `held`
    /// being what the query holds when the group's turn comes (the
    /// group's own front after it): the held front if it is at `m` and
    /// its region contains the span's; else a view through the span of
    /// the whole-terrain front at `m` — the held one, or the engine's
    /// table's; else derived. The table lacking the step, the group
    /// derives the whole front when every unit of the whole lattice at
    /// `m` is resident — a claim of it reads no page — and its own span's
    /// front otherwise, so a cold query reads no page it would not read
    /// for its own span.
    fn front_source(&self, m: u32, span: TileSpan, held: &mut Option<Holding>) -> GroupFront {
        let holds_whole = match *held {
            Some(h) if h.step == m => {
                if self.grid.span_rect(h.span).contains_rect(&self.grid.span_rect(span)) {
                    return GroupFront::Cached;
                }
                h.whole
            }
            _ => false,
        };
        let full = self.grid.full_span();
        let source = match holds_whole.then_some(None).or_else(|| self.whole.get(m).map(Some)) {
            Some(front) => GroupFront::View { front, span },
            None => {
                let whole = span == full || self.cuts.all_resident(m, full);
                GroupFront::Derive { span, units: vec![], whole }
            }
        };
        let whole = !matches!(source, GroupFront::Derive { whole: false, .. });
        *held = Some(Holding { step: m, span, whole });
        source
    }

    /// One axis band per group and axis, covering every member whose
    /// separating planes run along that axis, snapped like the group's
    /// region `rois[g]`; the widened band and region stay transparent to
    /// the lower-bound math because `lb_job` slices each candidate's
    /// exact interval. Returns per group the index of each axis's band in
    /// the band list (`None` when no member needs it), and the list.
    #[allow(clippy::type_complexity)]
    fn line_bands<'r>(
        &self,
        q: &SurfacePoint,
        cands: &[Candidate],
        members: &[Vec<usize>],
        rois: &'r [Rect2],
    ) -> (Vec<[Option<usize>; 2]>, Vec<LineBand<'r>>) {
        let mut band_of: Vec<[Option<usize>; 2]> = Vec::with_capacity(members.len());
        let mut bands: Vec<LineBand<'r>> = Vec::new();
        for (group, roi) in members.iter().zip(rois) {
            let mut slots = [None, None];
            for (slot, axis) in [(0, Axis::X), (1, Axis::Y)] {
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for &ci in group {
                    if Msdn::axis_for(q.pos, cands[ci].point.pos) == axis {
                        let (ca, cb) = (axis.coord(q.pos), axis.coord(cands[ci].point.pos));
                        lo = lo.min(ca.min(cb));
                        hi = hi.max(ca.max(cb));
                    }
                }
                if lo < hi {
                    let (lo, hi) = self.grid.snap_band(slot, lo, hi);
                    slots[slot] = Some(bands.len());
                    bands.push(LineBand { axis, lo, hi, roi: Some(roi) });
                }
            }
            band_of.push(slots);
        }
        (band_of, bands)
    }

    /// Make the group's front at step `m` the held one: the held front as
    /// it is, a whole-terrain front viewed through the group's span, or
    /// derived, with its CSR graph, from the units the plan read for the
    /// group — and then published to the engine's table when it covers
    /// the whole terrain.
    fn hold_front(&self, m: u32, front: GroupFront, stats: &mut QueryStats) {
        let scratch = &mut *self.scratch.borrow_mut();
        let (front, span) = match front {
            GroupFront::Cached => {
                stats.front_cache_hits += 1;
                return;
            }
            GroupFront::View { front, span } => {
                stats.shared_fronts += 1;
                let held = || scratch.front_cache.as_ref().map(|h| Arc::clone(&h.front));
                (front.or_else(held).expect("the plan counted on the held whole front"), span)
            }
            GroupFront::Derive { span, units, whole } => {
                stats.derived_fronts += 1;
                scratch.retire_front();
                let start = Instant::now();
                let mut graph = FrontGraph::derive(self.tree, m, &units, &mut scratch.fetch);
                let mut csr = std::mem::take(&mut scratch.spare_csr);
                csr.rebuild_undirected(graph.num_nodes(), &graph.edges);
                scratch.fetch.recycle_edges(&mut graph);
                let side = self.grid.tiles();
                let tiles = whole.then(|| scratch.fetch.tile_ranges(&graph, &units, side));
                let derive = us_since(start);
                stats.stages.fetch_derive_us += derive;
                stats.stages.rank_fetch_us += derive;
                let front = Arc::new(CachedFront { step: m, graph, csr, tiles });
                if whole {
                    self.whole.publish(&front);
                }
                (front, span)
            }
        };
        if span == self.grid.full_span() {
            stats.whole_fronts += 1;
        }
        scratch.retire_front();
        scratch.front_cache = Some(HeldFront { front, span });
    }

    /// Upper bounds from the DMTM front at step `m`, from the source the
    /// plan chose for this group (see [`hold_front`](Self::hold_front)).
    /// Every run enters only the nodes of the held front's region, and the
    /// embeddings keep only those nodes: over a view, the runs the derived
    /// front would give, bit for bit.
    fn ub_phase_front(
        &self,
        q: &SurfacePoint,
        cands: &mut [Candidate],
        members: &[usize],
        m: u32,
        front: GroupFront,
        stats: &mut QueryStats,
    ) {
        self.hold_front(m, front, stats);
        let scratch = &mut *self.scratch.borrow_mut();
        let RankScratch { front_cache, masked, shared, .. } = scratch;
        let held = front_cache.as_ref().expect("held above, or the front the plan counted on");
        let CachedFront { graph: fg, csr, .. } = &*held.front;
        let mask = held.mask(self.grid.full_span());
        if fg.num_nodes() == 0 {
            return;
        }
        let embed = |p: &SurfacePoint| -> Vec<(u32, f64)> {
            let mut entries = fg.embed(self.tree, self.mesh, p.tri, p.pos);
            entries.retain(|&(local, _)| admits(mask, local as usize));
            entries
        };
        let q_emb = embed(q);
        if q_emb.is_empty() {
            return;
        }

        // Unrestricted candidates (no finite upper bound yet, no corridor —
        // i.e. everyone on the first iteration) all need the *same*
        // multi-source Dijkstra from the query embedding; run it once per
        // group instead of once per candidate.
        let unrestricted = |c: &Candidate| {
            (!self.cfg.ellipse_prune || !c.range.ub.is_finite())
                && (!self.cfg.corridor_refinement || c.corridor.is_empty())
        };
        let shared_run = if members.iter().any(|&ci| unrestricted(&cands[ci])) {
            let admitted = |v: u32| admits(mask, v as usize);
            let run = Dijkstra::run_masked_scratch(csr, &q_emb, &[], admitted, shared);
            stats.settled += run.settled;
            stats.absorb_queue(&run.queue);
            Some(run)
        } else {
            None
        };

        let pad = self.mesh.mean_edge_length();
        for &ci in members {
            let exits = embed(&cands[ci].point);
            if exits.is_empty() {
                continue;
            }
            stats.ub_estimations += 1;
            let ellipse = if self.cfg.ellipse_prune && cands[ci].range.ub.is_finite() {
                Some(Ellipse2::new(q.pos.xy(), cands[ci].point.pos.xy(), cands[ci].range.ub))
            } else {
                None
            };
            let has_corr = self.cfg.corridor_refinement && !cands[ci].corridor.is_empty();

            if ellipse.is_none() && !has_corr {
                // Read this candidate's answer off the shared run.
                let run = shared_run.as_ref().expect("shared run covers unrestricted candidates");
                let (best, best_node) = run.best_exit(&exits);
                if best.is_finite() {
                    cands[ci].range.tighten_ub(best);
                    let path = best_node.map(|x| run.path_to(x)).unwrap_or_default();
                    cands[ci].corridor.clear();
                    cands[ci]
                        .corridor
                        .extend(path.iter().map(|&local| {
                            self.tree.node(fg.ids[local as usize]).mbr.expanded(pad)
                        }));
                } else {
                    // Disconnected even unrestricted (over-tight fetch
                    // region): keep the previous bound; the region
                    // re-derives next round.
                    cands[ci].corridor.clear();
                }
                continue;
            }

            // Try the most restricted region first, then relax.
            let attempts: [(bool, bool); 3] = [(true, true), (false, true), (false, false)];
            let mut done = false;
            for (use_corr, use_ell) in attempts {
                if use_corr && !has_corr {
                    continue;
                }
                let (dist, settled, queue, path) = {
                    // Borrow the corridor only for the duration of the run
                    // (it ends with this block, freeing the candidate for
                    // the mutations below — no clone).
                    let corridor = &cands[ci].corridor;
                    let allowed = |local: usize| -> bool {
                        if !admits(mask, local) {
                            return false;
                        }
                        let p = fg.rep_pos[local].xy();
                        if use_ell {
                            if let Some(e) = &ellipse {
                                if !e.contains(p) {
                                    return false;
                                }
                            }
                        }
                        if use_corr && !corridor.iter().any(|r| r.contains_point(p)) {
                            return false;
                        }
                        true
                    };
                    let goal = cands[ci].point.pos;
                    filtered_dijkstra(fg, csr, allowed, &q_emb, &exits, goal, masked)
                };
                stats.settled += settled;
                stats.absorb_queue(&queue);
                if dist.is_finite() {
                    cands[ci].range.tighten_ub(dist);
                    // Record the corridor for the next level: the path
                    // nodes' descendant MBRs, slightly expanded.
                    cands[ci].corridor.clear();
                    cands[ci]
                        .corridor
                        .extend(path.iter().map(|&id| self.tree.node(id).mbr.expanded(pad)));
                    done = true;
                    break;
                }
            }
            if !done {
                // Disconnected even unrestricted (over-tight fetch region):
                // keep the previous bound; the region re-derives next round.
                cands[ci].corridor.clear();
            }
        }
    }

    /// Upper bounds from the pathnet (the >100 % level): approximate
    /// surface distances over Steiner-augmented facets within the group
    /// region, searched in place. Its page charge — the region's
    /// leaf-level units — is the plan's.
    fn ub_phase_pathnet(
        &self,
        q: &SurfacePoint,
        cands: &mut [Candidate],
        members: &[usize],
        region: Rect2,
        stats: &mut QueryStats,
    ) {
        let net = RegionNet::new(self.mesh, self.cfg.pathnet_steiner, region);
        // Every member shares the query as source, so one run serves the
        // whole group, aimed at the members, and stops once their nodes
        // are settled; the distances are bit-identical to per-pair
        // `Pathnet::distance` calls over the net built for the region.
        let dests: Vec<MeshPoint> =
            members.iter().map(|&ci| cands[ci].point.to_mesh_point()).collect();
        let scratch = &mut *self.scratch.borrow_mut();
        let run = net.distances(q.to_mesh_point(), &dests, &mut scratch.pathnet);
        stats.absorb_queue(&run.queue);
        stats.settled += run.settled;
        for (&ci, &d) in members.iter().zip(&run.dist) {
            stats.ub_estimations += 1;
            if d.is_finite() {
                cands[ci].range.tighten_ub(d);
            }
        }
    }

    /// Fig.-8 support: one-shot range estimation of a single pair at the
    /// DMTM resolution of schedule step `dmtm_step` (an index into
    /// `cfg.schedule.dmtm`, whose steps the unit store holds) and MSDN
    /// level `msdn_level` (no iteration, no pruning). Read the way an
    /// iteration reads one group over the whole terrain: its front from
    /// [`front_source`](Self::front_source), the lines of the pair's band
    /// from the line cache, and the keys nobody holds in one batch (a
    /// pathnet level reads no unit). A failed read leaves the pair its
    /// Euclidean lower bound and an unbounded upper bound.
    pub fn estimate_pair(
        &self,
        a: &SurfacePoint,
        b: &SurfacePoint,
        dmtm_step: usize,
        msdn_level: usize,
        stats: &mut QueryStats,
    ) -> DistRange {
        let mut range = DistRange::unbounded();
        range.tighten_lb(a.pos.dist(b.pos));
        stats.ub_estimations += 1;
        stats.lb_estimations += 1;
        let (step, m) = self.step_of(dmtm_step);
        let full = [self.grid.full_span()];
        let mut held = self.scratch.borrow().front_cache.as_ref().map(HeldFront::holding);
        let front = step.map(|m| self.front_source(m, full[0], &mut held));
        let derive = matches!(front, Some(GroupFront::Derive { .. }));
        // Every line of the pair's band, as `PagedMsdn::lower_bound` with
        // no region reads them.
        let axis = Msdn::axis_for(a.pos, b.pos);
        let (ca, cb) = (axis.coord(a.pos), axis.coord(b.pos));
        let band = LineBand { axis, lo: ca.min(cb), hi: ca.max(cb), roi: None };
        let clock = FetchClock::start(self.pager);
        let mut units = self.cuts.claim(m, if derive { &full } else { &[] });
        let mut lines = self.lines.claim(self.msdn, msdn_level, &[band]);
        let read = clock.read(self.pager, vec![&mut units, &mut lines]).and_then(|()| {
            clock.decode(self.pager, || {
                units.publish();
                lines.publish();
                StoreResult::Ok((units.finish(self.pager)?, lines.finish(self.pager)?))
            })
        });
        clock.stop(self.pager, &mut stats.stages);
        let (mut units, mut lines) = match read {
            Ok(read) => read,
            Err(e) => {
                self.absorb_fault("pair", e);
                return range;
            }
        };
        for &hit in units.iter().map(|(_, hit)| hit).chain(lines.iter().map(|(_, hit)| hit)) {
            count_cut_fetch(stats, hit);
        }
        // Upper bound.
        if let (Some(m), Some(mut front)) = (step, front) {
            if let GroupFront::Derive { units: read, .. } = &mut front {
                *read = units.pop().expect("one span, one unit list").0;
            }
            self.hold_front(m, front, stats);
            let RankScratch { front_cache, masked, .. } = &mut *self.scratch.borrow_mut();
            // Held for the whole lattice, so no node is masked.
            let CachedFront { graph: fg, csr, .. } =
                &*front_cache.as_ref().expect("held above").front;
            let src = fg.embed(self.tree, self.mesh, a.tri, a.pos);
            let dst = fg.embed(self.tree, self.mesh, b.tri, b.pos);
            if !src.is_empty() && !dst.is_empty() {
                let (d, settled, queue, _) =
                    filtered_dijkstra(fg, csr, |_| true, &src, &dst, b.pos, masked);
                stats.settled += settled;
                stats.absorb_queue(&queue);
                range.tighten_ub(d);
            }
        } else {
            // The whole-mesh net, searched in place.
            let net = RegionNet::new(self.mesh, self.cfg.pathnet_steiner, self.mesh.extent());
            let (src, dst) = (a.to_mesh_point(), b.to_mesh_point());
            let scratch = &mut self.scratch.borrow_mut().pathnet;
            range.tighten_ub(net.distances(src, &[dst], scratch).dist[0]);
        }
        // Lower bound, over the band's lines from `a` to `b`.
        let (mut lines, _) = lines.pop().expect("one band, one line list");
        if ca > cb {
            lines.reverse();
        }
        let lines: Vec<&SimplifiedLine> = lines.iter().map(|l| &**l).collect();
        let lb =
            lower_bound_with(&lines, a.pos, b.pos, None, None, &mut self.scratch.borrow_mut().lb);
        stats.settled += lb.nodes_settled;
        stats.absorb_queue(&lb.queue);
        range.tighten_lb(lb.value);
        range
    }
}

/// Count one fetch through a shared cut cache: a hit iff it loaded no
/// unit.
fn count_cut_fetch(stats: &mut QueryStats, hit: bool) {
    if hit {
        stats.cut_cache_hits += 1;
    } else {
        stats.cut_cache_misses += 1;
    }
}

/// One member's lower-bound job: everything [`lb_job`] reads, owned, so
/// a helper thread can run it beside the query's thread.
struct LbJob {
    /// Its group's X and Y lines.
    lines: Arc<[LineSet; 2]>,
    /// The query's position and the member's.
    q: Point3,
    c: Point3,
    /// The member's I/O region.
    roi: Rect2,
    /// The member's lower bound before the job.
    lb: f64,
    /// The member's last witness chain and the corridor width around it,
    /// when the dummy bound is tried first.
    corridor: Option<(Arc<[Aabb3]>, f64)>,
}

/// What one [`LbJob`] computed.
struct LbOut {
    /// The full lower bound and its witness chain; `None` when the dummy
    /// bound showed the full one could not raise `lb`.
    full: Option<(f64, Arc<[Aabb3]>)>,
    /// Nodes settled and queue operations of the job's runs.
    settled: usize,
    queue: QueueCounters,
    /// The job's CPU time when a helper ran it (a query's own clock
    /// covers the query's thread), and its wall time.
    cpu: Duration,
    us: u64,
}

/// Lower bound for one candidate, slicing its separating lines from the
/// group's prefetched axis ranges, with the dummy-bound shortcut of
/// §4.2.2. A pure function of the job: it reads no page and no shared
/// state, so any thread may run it.
fn lb_job(job: &LbJob, scratch: &mut LbScratch) -> LbOut {
    let (start, timer) = (Instant::now(), sknn_exec::on_helper().then(CpuTimer::start));
    let axis = Msdn::axis_for(job.q, job.c);
    let slot = if axis == Axis::X { 0 } else { 1 };
    let (ca, cb) = (axis.coord(job.q), axis.coord(job.c));
    let (lo, hi) = (ca.min(cb), ca.max(cb));
    // Slice this candidate's exact plane interval out of the group's
    // canonical (widened) band; out-of-band or out-of-region lines
    // contribute nothing to `lower_bound` (their segments fail its ROI
    // filter), so the widening never changes the computed bound.
    let mut lines: Vec<&SimplifiedLine> = job.lines[slot]
        .iter()
        .map(|l| &**l)
        .filter(|l| l.plane.value > lo && l.plane.value < hi)
        .collect();
    if ca > cb {
        lines.reverse();
    }
    let mut out = LbOut {
        full: None,
        settled: 0,
        queue: QueueCounters::default(),
        cpu: Duration::ZERO,
        us: 0,
    };
    let roi = Some(&job.roi);
    // The dummy bound over-estimates the true lower bound. If even it
    // cannot push this candidate's range above its current lb, the full
    // bound cannot either — skip the full computation.
    let dummy_suffices = job.corridor.as_ref().is_some_and(|(path, width)| {
        let dummy = lower_bound_with(&lines, job.q, job.c, roi, Some((path, *width)), scratch);
        out.settled += dummy.nodes_settled;
        out.queue.absorb(&dummy.queue);
        dummy.value <= job.lb + 1e-9
    });
    if !dummy_suffices {
        let full = lower_bound_with(&lines, job.q, job.c, roi, None, scratch);
        out.settled += full.nodes_settled;
        out.queue.absorb(&full.queue);
        out.full = Some((full.value, full.path_mbrs.into()));
    }
    if let Some(timer) = timer {
        timer.stop_into(&mut out.cpu);
    }
    out.us = us_since(start);
    out
}

fn us_since(start: Instant) -> u64 {
    start.elapsed().as_micros() as u64
}

/// The clock of one iteration's fetch. Its wall time goes to
/// `rank_fetch_us` and splits three ways: the pager's stall; the decode —
/// the loads' feeds, `publish` and `finish`, less any stall inside them —
/// into `fetch_decode_us`; and the rest, the claims, the plan around them
/// and [`Pager::read_into`]'s own work, into `fetch_read_us`. A batch that
/// fed no page decoded nothing: handing out resident keys is read time.
/// Each part is truncated to whole microseconds once per iteration, and
/// the read takes the remainder, so `fetch_read_us + fetch_decode_us`
/// plus the stall's whole microseconds is the iteration's `rank_fetch_us`
/// exactly.
struct FetchClock {
    start: Instant,
    stall_ns: u64,
    decode_ns: Cell<u64>,
    fed: Cell<bool>,
}

impl FetchClock {
    fn start(pager: &Pager) -> Self {
        Self {
            start: Instant::now(),
            stall_ns: pager.window_stall_ns(),
            decode_ns: Cell::new(0),
            fed: Cell::new(false),
        }
    }

    /// One [`Pager::read_into`] of `sinks`, their feeds timed as decode.
    fn read(&self, pager: &Pager, sinks: Vec<&mut dyn PageSink>) -> StoreResult<()> {
        if sinks.iter().all(|s| s.pages().is_empty()) {
            return Ok(());
        }
        let mut timed: Vec<TimedSink> =
            sinks.into_iter().map(|sink| TimedSink { sink, clock: self }).collect();
        let mut sinks: Vec<&mut dyn PageSink> =
            timed.iter_mut().map(|t| t as &mut dyn PageSink).collect();
        pager.read_into(&mut sinks)
    }

    /// Run `f` as decode work: its wall time less the stall it paid.
    fn decode<T>(&self, pager: &Pager, f: impl FnOnce() -> T) -> T {
        if !self.fed.get() {
            return f();
        }
        let (start, stall) = (Instant::now(), pager.window_stall_ns());
        let out = f();
        let stalled = pager.window_stall_ns() - stall;
        let ns = (start.elapsed().as_nanos() as u64).saturating_sub(stalled);
        self.decode_ns.set(self.decode_ns.get() + ns);
        out
    }

    fn stop(self, pager: &Pager, stages: &mut StageTimes) {
        let wall = us_since(self.start);
        let unstalled = wall.saturating_sub((pager.window_stall_ns() - self.stall_ns) / 1000);
        let decode = (self.decode_ns.get() / 1000).min(unstalled);
        stages.rank_fetch_us += wall;
        stages.fetch_decode_us += decode;
        stages.fetch_read_us += unstalled - decode;
    }
}

/// A load whose feeds a [`FetchClock`] times.
struct TimedSink<'s, 'c> {
    sink: &'s mut dyn PageSink,
    clock: &'c FetchClock,
}

impl PageSink for TimedSink<'_, '_> {
    fn pages(&self) -> &[PageId] {
        self.sink.pages()
    }

    fn feed(&mut self, page: PageId, bytes: &[u8]) {
        let start = Instant::now();
        self.sink.feed(page, bytes);
        let ns = &self.clock.decode_ns;
        ns.set(ns.get() + start.elapsed().as_nanos() as u64);
        self.clock.fed.set(true);
    }
}

fn max_ub(cands: &[Candidate]) -> f64 {
    cands.iter().map(|c| c.range.ub).fold(f64::NEG_INFINITY, f64::max)
}

/// Dijkstra over a front graph restricted to `allowed` nodes, aimed at
/// `goal`, the point `exits` embed. Returns the best source-to-exit
/// distance, settled count, queue counters, and the tree-node-id path.
///
/// No graph is built: the run is masked over `csr`, the front's own
/// adjacency, asks `allowed` only of the nodes it reaches, and stops once
/// no exit still queued can matter — so its cost is what it settles, not
/// the size of the front. It keys each node by its distance plus the
/// potential of its representative towards `goal` (A*): a front link's
/// recorded length is at least the straight line between its ends, and
/// an exit's cost at least the straight line from its representative to
/// `goal` (DESIGN §5), so the total and path are plain Dijkstra's.
#[allow(clippy::too_many_arguments)]
fn filtered_dijkstra(
    fg: &FrontGraph,
    csr: &Graph,
    allowed: impl Fn(usize) -> bool,
    sources: &[(u32, f64)],
    exits: &[(u32, f64)],
    goal: Point3,
    dij: &mut DijkstraScratch,
) -> (f64, usize, QueueCounters, Vec<u32>) {
    let allowed = |v: u32| allowed(v as usize);
    let h = |v: u32| potential(fg.rep_pos[v as usize], goal);
    let run = Dijkstra::run_masked_toward(csr, sources, exits, allowed, h, dij);
    // A node the mask rejects is never entered and reads as infinitely
    // far, so the mask needs no second look here.
    let (best, best_node) = run.best_exit(exits);
    let path = best_node
        .map(|x| run.path_to(x).into_iter().map(|local| fg.ids[local as usize]).collect())
        .unwrap_or_default();
    (best, run.settled, run.queue, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mr3::{Mr3Engine, QueryOpts};
    use crate::workload::{Scene, SceneBuilder};
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};
    use sknn_geodesic::graph::QueuePolicy;
    use sknn_geodesic::pathnet::Pathnet;
    use sknn_terrain::dem::TerrainConfig;

    /// Run `body` over a scene of `objects` objects on the small EP
    /// fixture, with the ranking context the engine's query scope builds.
    fn with_ctx<T>(
        objects: usize,
        seed: u64,
        body: impl FnOnce(&Scene<'_>, &RankingContext<'_, '_>) -> T,
    ) -> T {
        let mesh = TerrainConfig::ep().with_grid(17).build_mesh(77);
        let scene = SceneBuilder::new(&mesh).object_count(objects).seed(seed).build();
        let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
        engine.scoped(&QueryOpts::default(), "test", |s| body(&scene, &s.ctx)).out
    }

    #[test]
    fn ranking_brackets_exact_distances() {
        with_ctx(12, 3, |scene, c| {
            let q = scene.random_query(5);
            let terrain = c.mesh.extent();
            let mut cands: Vec<Candidate> = scene
                .objects()
                .iter()
                .map(|o| Candidate::new(&q, o.id, o.point, &terrain))
                .collect();
            let mut stats = QueryStats::default();
            let resolved = c.rank_top_k(&q, &mut cands, 3, &mut stats);
            assert!(stats.iterations >= 1);
            // Bounds must bracket the exact distances.
            let geo = sknn_geodesic::ExactGeodesic::new(c.mesh);
            for cand in &cands {
                let exact = geo.distance(q.to_mesh_point(), cand.point.to_mesh_point());
                assert!(
                    cand.range.lb <= exact + 1e-6,
                    "cand {}: lb {} > exact {exact}",
                    cand.id,
                    cand.range.lb
                );
                if cand.range.ub.is_finite() {
                    assert!(
                        cand.range.ub >= exact - 1e-6,
                        "cand {}: ub {} < exact {exact}",
                        cand.id,
                        cand.range.ub
                    );
                }
            }
            // If the engine reports resolution, the chosen top-3 must be the
            // true top-3 up to bound ties.
            if resolved {
                let mut by_exact: Vec<(f64, u32)> = cands
                    .iter()
                    .map(|cd| (geo.distance(q.to_mesh_point(), cd.point.to_mesh_point()), cd.id))
                    .collect();
                by_exact.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                let mut by_ub: Vec<&Candidate> = cands.iter().filter(|cd| !cd.out).collect();
                by_ub.sort_by(|a, b| a.range.ub.partial_cmp(&b.range.ub).unwrap());
                let kth_exact = by_exact[2].0;
                for chosen in by_ub.iter().take(3) {
                    let exact = geo.distance(q.to_mesh_point(), chosen.point.to_mesh_point());
                    assert!(
                        exact <= kth_exact + 1e-6,
                        "chosen {} at {exact} vs kth {kth_exact}",
                        chosen.id
                    );
                }
            }
        });
    }

    /// Who runs the lower-bound jobs moves no bit: `rank_top_k` with
    /// every job offered to a helper equals the run with none offered —
    /// every candidate's bounds, witness chain and elimination, the
    /// work counters — and a job a helper ran charges no page, so the
    /// query's page counts are equal too. Runs until a helper has taken
    /// at least one job (a host with a spare thread must see one).
    #[test]
    fn ranking_is_bit_identical_whoever_runs_the_lower_bounds() {
        let mesh = TerrainConfig::ep().with_grid(17).build_mesh(77);
        let scene = SceneBuilder::new(&mesh).object_count(16).seed(3).build();
        let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
        assert!(engine.cold_cache, "each run reads its pages itself");
        let q = scene.random_query(5);
        // The context borrows the helpers for as long as it may borrow the
        // engine.
        let rank = |helpers: &'static Helpers| {
            engine
                .scoped(&QueryOpts::default(), "test", |s| {
                    s.ctx.share = Some(helpers);
                    let terrain = s.ctx.mesh.extent();
                    let mut cands: Vec<Candidate> = scene
                        .objects()
                        .iter()
                        .map(|o| Candidate::new(&q, o.id, o.point, &terrain))
                        .collect();
                    let mut stats = QueryStats::default();
                    s.ctx.rank_top_k(&q, &mut cands, 3, &mut stats);
                    (cands, stats, s.ctx.pager.stats())
                })
                .out
        };
        let key = |(cands, stats, io): &(Vec<Candidate>, QueryStats, sknn_store::IoStats)| {
            let cands: Vec<_> = cands
                .iter()
                .map(|c| {
                    (c.id, c.range.lb.to_bits(), c.range.ub.to_bits(), c.lb_path.to_vec(), c.out)
                })
                .collect();
            let counters = (
                stats.settled,
                stats.queue_pushes,
                stats.queue_pops,
                stats.stale_pops,
                stats.lb_estimations,
                stats.dummy_lb_hits,
                stats.ub_estimations,
                stats.iterations,
            );
            (cands, counters, io.physical_reads, io.logical_reads)
        };
        let off = rank(Box::leak(Box::new(Helpers::new(0))));
        assert_eq!(off.1.lb_jobs_shared, 0);
        assert!(off.1.lb_estimations > 0 && off.2.physical_reads > 0);
        let want = format!("{:?}", key(&off));
        let helpers = Box::leak(Box::new(Helpers::new(1)));
        let mut shared = 0;
        for _ in 0..200 {
            let on = rank(helpers);
            assert_eq!(format!("{:?}", key(&on)), want, "the run with a helper");
            shared += on.1.lb_jobs_shared;
            if shared > 0 {
                break;
            }
        }
        if sknn_exec::available_threads() > 1 {
            assert!(shared > 0, "a helper on a spare thread never took a job");
        }
    }

    /// A shared whole-terrain front moves no bit. The same radius and rank
    /// runs, on an engine whose table holds every whole-terrain front they
    /// ask for and on the same engine with its caches and table emptied
    /// before each query (so each derives its first one itself), give
    /// equal bounds, witness chains, eliminations and work counters.
    #[test]
    fn shared_whole_fronts_are_bit_identical_to_derived_ones() {
        let mesh = TerrainConfig::bh().with_grid(17).build_mesh(77);
        let scene = SceneBuilder::new(&mesh).object_count(16).seed(3).build();
        let mut engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
        engine.cold_cache = false;
        let queries: Vec<SurfacePoint> = (0..4).map(|i| scene.random_query(i)).collect();
        let run = |q: &SurfacePoint| {
            engine
                .scoped(&QueryOpts::default(), "test", |s| {
                    let terrain = s.ctx.mesh.extent();
                    let fresh = || -> Vec<Candidate> {
                        let objects = scene.objects().iter();
                        objects.map(|o| Candidate::new(q, o.id, o.point, &terrain)).collect()
                    };
                    let mut stats = QueryStats::default();
                    let mut seeds = fresh();
                    seeds.truncate(4);
                    s.ctx.estimate_radius(q, &mut seeds, true, &mut stats);
                    let mut cands = fresh();
                    s.ctx.rank_top_k(q, &mut cands, 3, &mut stats);
                    let bits = seeds
                        .iter()
                        .chain(&cands)
                        .map(|c| {
                            let (lb, ub) = (c.range.lb.to_bits(), c.range.ub.to_bits());
                            (c.id, lb, ub, c.lb_path.to_vec(), c.out)
                        })
                        .collect::<Vec<_>>();
                    let counters = (
                        stats.settled,
                        stats.queue_pushes,
                        stats.queue_pops,
                        stats.stale_pops,
                        stats.lb_estimations,
                        stats.dummy_lb_hits,
                        stats.ub_estimations,
                        stats.iterations,
                        stats.front_cache_hits,
                        stats.whole_fronts,
                    );
                    (format!("{:?}", (bits, counters)), stats.shared_fronts)
                })
                .out
        };
        queries.iter().for_each(|q| drop(run(q)));
        let full: Vec<_> = queries.iter().map(run).collect();
        let shared: usize = full.iter().map(|(_, shared)| shared).sum();
        assert!(shared > 0, "a full table serves the runs' whole-terrain fronts");
        for (q, (want, _)) in queries.iter().zip(&full) {
            engine.clear_cut_caches();
            assert!(engine.whole_front_steps().is_empty());
            let (got, _) = run(q);
            assert_eq!(&got, want, "the query deriving its own whole-terrain fronts");
        }
    }

    /// The engine's table keeps one front per step: a second front at a
    /// step already held is dropped, and clearing the table leaves the
    /// fronts queries hold alone.
    #[test]
    fn the_table_holds_one_front_per_step() {
        let front = |step: u32| {
            let graph = FrontGraph { ids: vec![step], edges: vec![], rep_pos: vec![], step };
            Arc::new(CachedFront { step, graph, csr: Graph::default(), tiles: Some(vec![[0; 4]]) })
        };
        let table = WholeFronts::default();
        let (first, second) = (front(5), front(5));
        table.publish(&first);
        table.publish(&second);
        table.publish(&front(7));
        assert_eq!(table.steps(), [5, 7]);
        assert!(Arc::ptr_eq(&table.get(5).expect("published"), &first), "the first is kept");
        assert_eq!(Arc::strong_count(&second), 1, "the second is not held");
        assert!(table.get(6).is_none());
        table.clear();
        assert!(table.steps().is_empty() && table.get(5).is_none());
        assert_eq!(Arc::strong_count(&first), 1);
    }

    /// The units of `span` at step `m`, read and published if not resident.
    fn units_of(c: &RankingContext<'_, '_>, m: u32, span: TileSpan) -> Vec<Arc<FrontUnit>> {
        let mut load = c.cuts.claim(m, &[span]);
        c.pager.read_into(&mut [&mut load]).expect("unfaulted");
        load.publish();
        load.finish(c.pager).expect("unfaulted").pop().expect("one span").0
    }

    /// Run the upper-bound phase of each `(front, members)` group in turn
    /// from a query holding no front, on a copy of `cands`: every
    /// candidate's upper-bound bits, and those with its corridor and the
    /// work counters.
    fn run_groups(
        c: &RankingContext<'_, '_>,
        q: &SurfacePoint,
        cands: &[Candidate],
        m: u32,
        groups: Vec<(GroupFront, Vec<usize>)>,
    ) -> (Vec<u64>, String) {
        c.scratch.borrow_mut().retire_front();
        let mut cands = cands.to_vec();
        let mut stats = QueryStats::default();
        for (front, members) in groups {
            c.ub_phase_front(q, &mut cands, &members, m, front, &mut stats);
        }
        let ubs: Vec<u64> = cands.iter().map(|c| c.range.ub.to_bits()).collect();
        let corridors: Vec<&Vec<Rect2>> = cands.iter().map(|c| &c.corridor).collect();
        let counters = (
            stats.settled,
            stats.queue_pushes,
            stats.queue_pops,
            stats.stale_pops,
            stats.ub_estimations,
            stats.front_cache_hits,
        );
        let all = format!("{:?}", (&ubs, corridors, counters));
        (ubs, all)
    }

    /// A random span of the lattice around `at`, one to five tiles a side.
    fn span_near(c: &RankingContext<'_, '_>, at: sknn_geom::Point2, rng: &mut StdRng) -> TileSpan {
        let r = c.grid.extent().width() / c.grid.tiles() as f64 * rng.gen_range(0.0..2.0);
        c.grid.span(&Rect2::new(at, at).expanded(r))
    }

    /// A sub-span of `s`.
    fn inside(s: TileSpan, rng: &mut StdRng) -> TileSpan {
        let (x0, y0) = (rng.gen_range(s.x0..s.x1), rng.gen_range(s.y0..s.y1));
        TileSpan {
            x0,
            x1: rng.gen_range(x0 + 1..s.x1 + 1),
            y0,
            y1: rng.gen_range(y0 + 1..s.y1 + 1),
        }
    }

    /// A view of the whole-terrain front through a group's span runs as
    /// the front derived from the span's units: for every DMTM step of
    /// `s1` on a 33² and a 65² scene, over random groups — members with
    /// and without a finite upper bound and a corridor, so the shared
    /// run and every attempt of the relaxation ladder — and a second
    /// group the first one's region contains (held-front hits, masked to
    /// the held region), every member's upper-bound bits and corridor,
    /// the settled nodes, queue counters and estimations are equal.
    #[test]
    fn views_are_bit_identical_to_derived_fronts() {
        for grid in [33, 65] {
            let mesh = TerrainConfig::bh().with_grid(grid).build_mesh(5);
            let scene = SceneBuilder::new(&mesh).object_count(24).seed(grid as u64).build();
            let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
            engine.scoped(&QueryOpts::default(), "test", |s| {
                let c = &s.ctx;
                let (terrain, full) = (c.mesh.extent(), c.grid.full_span());
                let mut rng = StdRng::seed_from_u64(grid as u64);
                let steps = c.cfg.schedule.dmtm.iter().filter(|&&f| f <= 1.0);
                for m in steps.map(|&f| c.tree.step_for_fraction(f)) {
                    let units = units_of(c, m, full);
                    let derive = GroupFront::Derive { span: full, units, whole: true };
                    c.hold_front(m, derive, &mut QueryStats::default());
                    let whole = c.whole.get(m).expect("published");
                    for case in 0..8u64 {
                        let q = scene.random_query(rng.next_u64());
                        let mut cands: Vec<Candidate> = scene
                            .objects()
                            .iter()
                            .map(|o| Candidate::new(&q, o.id, o.point, &terrain))
                            .collect();
                        // Bounds and corridors from an unmasked round, then
                        // some of them dropped.
                        let all: Vec<usize> = (0..cands.len()).collect();
                        let round =
                            GroupFront::View { front: Some(Arc::clone(&whole)), span: full };
                        c.ub_phase_front(
                            &q,
                            &mut cands,
                            &all,
                            m,
                            round,
                            &mut QueryStats::default(),
                        );
                        for cand in &mut cands {
                            match rng.gen_range(0usize..4) {
                                0 => cand.range = DistRange::unbounded(),
                                1 => cand.corridor.clear(),
                                2 => cand.range.ub *= rng.gen_range(0.6..1.0),
                                _ => {}
                            }
                        }
                        let outer = span_near(c, q.pos.xy(), &mut rng);
                        let inner = inside(outer, &mut rng);
                        let mut members: Vec<usize> = (0..cands.len()).collect();
                        members.retain(|_| rng.gen_range(0usize..2) == 0);
                        let second: Vec<usize> = members.iter().copied().rev().collect();
                        let derived = run_groups(
                            c,
                            &q,
                            &cands,
                            m,
                            vec![
                                (
                                    GroupFront::Derive {
                                        span: outer,
                                        units: units_of(c, m, outer),
                                        whole: false,
                                    },
                                    members.clone(),
                                ),
                                (GroupFront::Cached, second.clone()),
                                (
                                    GroupFront::Derive {
                                        span: inner,
                                        units: units_of(c, m, inner),
                                        whole: false,
                                    },
                                    members.clone(),
                                ),
                            ],
                        );
                        let viewed = run_groups(
                            c,
                            &q,
                            &cands,
                            m,
                            vec![
                                (
                                    GroupFront::View {
                                        front: Some(Arc::clone(&whole)),
                                        span: outer,
                                    },
                                    members.clone(),
                                ),
                                (GroupFront::Cached, second.clone()),
                                (GroupFront::View { front: None, span: inner }, members.clone()),
                            ],
                        );
                        assert_eq!(viewed, derived, "{grid}² step {m} case {case}");
                    }
                }
            });
        }
    }

    /// The mask is what makes a view the derived front: a group whose
    /// region leaves a shorter path outside it gets a different (tighter)
    /// upper bound from the unmasked whole-terrain front, and the view
    /// through its span gives the derived front's bound.
    #[test]
    fn an_unmasked_whole_front_leaves_the_region_and_a_view_does_not() {
        let mesh = TerrainConfig::bh().with_grid(33).build_mesh(5);
        let scene = SceneBuilder::new(&mesh).object_count(24).seed(33).build();
        let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
        engine.scoped(&QueryOpts::default(), "test", |s| {
            let c = &s.ctx;
            let (terrain, full) = (c.mesh.extent(), c.grid.full_span());
            let m = c.tree.step_for_fraction(1.0);
            let units = units_of(c, m, full);
            c.hold_front(
                m,
                GroupFront::Derive { span: full, units, whole: true },
                &mut QueryStats::default(),
            );
            let whole = c.whole.get(m).expect("published");
            let mut rng = StdRng::seed_from_u64(7);
            let mut found = 0;
            for _ in 0..64 {
                let q = scene.random_query(rng.next_u64());
                let cands: Vec<Candidate> = scene
                    .objects()
                    .iter()
                    .map(|o| Candidate::new(&q, o.id, o.point, &terrain))
                    .collect();
                let span = span_near(c, q.pos.xy(), &mut rng);
                let members: Vec<usize> = (0..cands.len()).collect();
                let run = |front| run_groups(c, &q, &cands, m, vec![(front, members.clone())]);
                let units = units_of(c, m, span);
                let derived = run(GroupFront::Derive { span, units, whole: false });
                let unmasked =
                    run(GroupFront::View { front: Some(Arc::clone(&whole)), span: full });
                if unmasked.0 != derived.0 {
                    found += 1;
                    let viewed = run(GroupFront::View { front: Some(Arc::clone(&whole)), span });
                    assert_eq!(viewed, derived);
                }
            }
            assert!(found > 0, "no group's unmasked run left its region");
        });
    }

    #[test]
    fn radius_estimation_is_safe_and_finite() {
        with_ctx(10, 9, |scene, c| {
            let q = scene.random_query(2);
            let terrain = c.mesh.extent();
            let seeds = scene.dxy().knn(q.pos.xy(), 4);
            let mut cands: Vec<Candidate> = seeds
                .iter()
                .map(|&(_, _, id)| Candidate::new(&q, id, scene.object(id).point, &terrain))
                .collect();
            let mut stats = QueryStats::default();
            let radius = c.estimate_radius(&q, &mut cands, false, &mut stats);
            assert!(radius.is_finite() && radius > 0.0);
            // The radius must cover the 4 seeds' exact distances.
            let geo = sknn_geodesic::ExactGeodesic::new(c.mesh);
            for cand in &cands {
                let exact = geo.distance(q.to_mesh_point(), cand.point.to_mesh_point());
                assert!(exact <= radius + 1e-6, "seed {} at {exact} > radius {radius}", cand.id);
            }
        });
    }

    #[test]
    fn estimate_pair_accuracy_improves_with_resolution() {
        with_ctx(2, 13, |scene, c| {
            let a = scene.random_query(1);
            let b = scene.random_query(7);
            let mut stats = QueryStats::default();
            let last = c.cfg.schedule.len() - 1;
            assert_eq!(c.cfg.schedule.dmtm[0], 0.005);
            assert_eq!(c.cfg.schedule.dmtm[last], 2.0);
            let coarse = c.estimate_pair(&a, &b, 0, 0, &mut stats);
            let fine = c.estimate_pair(&a, &b, last, 4, &mut stats);
            assert!(fine.accuracy() >= coarse.accuracy() - 0.02);
            assert!(fine.accuracy() > 0.5, "final accuracy {}", fine.accuracy());
            assert!(fine.lb <= fine.ub);
        });
    }

    /// The pair estimator's pathnet step searches the whole-mesh net in
    /// place: its upper bound is the built net's `Pathnet::distance`, bit
    /// for bit.
    #[test]
    fn pair_pathnet_bound_equals_the_built_whole_mesh_net() {
        let mesh = TerrainConfig::ep().with_grid(33).build_mesh(77);
        let scene = SceneBuilder::new(&mesh).object_count(2).seed(5).build();
        let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
        engine.scoped(&QueryOpts::default(), "test", |s| {
            let c = &s.ctx;
            let net = Pathnet::build(c.mesh, c.cfg.pathnet_steiner, None);
            let last = c.cfg.schedule.len() - 1;
            assert!(c.cfg.schedule.dmtm[last] > 1.0, "the last step is the pathnet's");
            for i in 0..8 {
                let (a, b) = (scene.random_query(2 * i), scene.random_query(2 * i + 1));
                let ub = c.estimate_pair(&a, &b, last, 0, &mut QueryStats::default()).ub;
                let want = net.distance(c.mesh, a.to_mesh_point(), b.to_mesh_point());
                assert!(want.is_finite(), "pair {i} is connected");
                assert_eq!(ub.to_bits(), want.to_bits(), "pair {i}: {ub} vs {want}");
            }
        });
    }

    #[test]
    fn out_marking_never_drops_a_true_neighbor() {
        with_ctx(15, 21, |scene, c| {
            let q = scene.random_query(11);
            let terrain = c.mesh.extent();
            let mut cands: Vec<Candidate> = scene
                .objects()
                .iter()
                .map(|o| Candidate::new(&q, o.id, o.point, &terrain))
                .collect();
            let mut stats = QueryStats::default();
            let k = 4;
            c.rank_top_k(&q, &mut cands, k, &mut stats);
            let geo = sknn_geodesic::ExactGeodesic::new(c.mesh);
            let mut by_exact: Vec<(f64, u32)> = cands
                .iter()
                .map(|cd| (geo.distance(q.to_mesh_point(), cd.point.to_mesh_point()), cd.id))
                .collect();
            by_exact.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let true_top: Vec<u32> = by_exact.iter().take(k).map(|&(_, id)| id).collect();
            for cd in &cands {
                if cd.out {
                    assert!(!true_top.contains(&cd.id), "true neighbor {} was eliminated", cd.id);
                }
            }
        });
    }

    /// The form [`filtered_dijkstra`] replaced, kept as its oracle: ask
    /// the mask of every front node, copy the edges between admitted
    /// nodes, build a graph from them and run it to exhaustion.
    fn filter_and_rebuild(
        fg: &FrontGraph,
        allowed: &dyn Fn(usize) -> bool,
        sources: &[(u32, f64)],
        exits: &[(u32, f64)],
        policy: QueuePolicy,
    ) -> (f64, usize, Vec<u32>) {
        let n = fg.num_nodes();
        let mask: Vec<bool> = (0..n).map(allowed).collect();
        let edges: Vec<(u32, u32, f64)> = fg
            .edges
            .iter()
            .filter(|&&(a, b, _)| mask[a as usize] && mask[b as usize])
            .copied()
            .collect();
        let graph = Graph::from_undirected(n, &edges);
        let srcs: Vec<(u32, f64)> =
            sources.iter().filter(|&&(s, _)| mask[s as usize]).copied().collect();
        if srcs.is_empty() {
            return (f64::INFINITY, 0, Vec::new());
        }
        let run = Dijkstra::run_multi_with(&graph, &srcs, None, policy);
        let mut best = f64::INFINITY;
        let mut best_node = None;
        for &(x, exit_cost) in exits {
            if !mask[x as usize] {
                continue;
            }
            let total = run.dist[x as usize] + exit_cost;
            if total < best {
                best = total;
                best_node = Some(x);
            }
        }
        let path = best_node
            .map(|x| run.path_to(x).into_iter().map(|local| fg.ids[local as usize]).collect())
            .unwrap_or_default();
        (best, run.settled, path)
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use proptest::test_runner::CaseError;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::sync::OnceLock;

        fn shared() -> &'static Mr3Engine<'static, 'static> {
            static ENGINE: OnceLock<Mr3Engine<'static, 'static>> = OnceLock::new();
            ENGINE.get_or_init(|| {
                let mesh: &'static TerrainMesh =
                    Box::leak(Box::new(TerrainConfig::bh().with_grid(33).build_mesh(5)));
                let scene: &'static Scene<'static> =
                    Box::leak(Box::new(SceneBuilder::new(mesh).object_count(1).seed(1).build()));
                Mr3Engine::build(mesh, scene, &Mr3Config::default())
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(40))]
            /// The masked run over the front's own CSR returns the bound,
            /// the path — hence the next round's corridor — and no more
            /// settled nodes than filtering and rebuilding did, on every
            /// attempt of the relaxation ladder and under both queues.
            #[test]
            fn masked_run_matches_filter_and_rebuild(
                seed in any::<u64>(),
                frac_idx in 0usize..4,
                whole_front in any::<bool>(),
                slack in 1.0f64..1.5,
                hole in 0usize..4,
                heap in any::<bool>(),
            ) {
                let engine = shared();
                let policy = if heap { QueuePolicy::Heap } else { QueuePolicy::Bucket };
                let scene = engine.scene();
                let (a, b) = (scene.random_query(seed), scene.random_query(seed ^ 0xB));
                let mut rng = StdRng::seed_from_u64(seed);
                engine.scoped(&QueryOpts::default(), "test", |s| -> Result<(), CaseError> {
                let f = &s.ctx;

                let m = f.tree.step_for_fraction([0.1, 0.4, 0.7, 1.0][frac_idx]);
                let roi = Rect2::from_points([a.pos.xy(), b.pos.xy()].into_iter())
                    .expanded(rng.gen_range(5.0..60.0));
                let roi = if whole_front { None } else { Some(roi) };
                let fg = FrontGraph::extract(f.tree, m, roi.as_ref());
                let src = fg.embed(f.tree, f.mesh, a.tri, a.pos);
                let dst = fg.embed(f.tree, f.mesh, b.tri, b.pos);
                prop_assume!(!src.is_empty() && !dst.is_empty());
                let csr = Graph::from_undirected(fg.num_nodes(), &fg.edges);
                let mut dij = DijkstraScratch::with_policy(policy);

                // The unrestricted run (`estimate_pair`'s), whose path
                // seeds a corridor with `hole` rectangles missing from its
                // middle, so some corridors hold and some disconnect.
                let (free, free_settled, free_path) =
                    filter_and_rebuild(&fg, &|_| true, &src, &dst, policy);
                let (got, settled, _, path) =
                    filtered_dijkstra(&fg, &csr, |_| true, &src, &dst, b.pos, &mut dij);
                prop_assert_eq!(got.to_bits(), free.to_bits());
                prop_assert_eq!(&path, &free_path);
                prop_assert!(settled <= free_settled);
                prop_assume!(free.is_finite());

                let pad = f.mesh.mean_edge_length();
                let corridor: Vec<Rect2> = free_path
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i.abs_diff(free_path.len() / 2) >= hole)
                    .map(|(_, &id)| f.tree.node(id).mbr.expanded(pad))
                    .collect();
                let ellipse = Ellipse2::new(a.pos.xy(), b.pos.xy(), free * slack);
                for (use_corr, use_ell) in [(true, true), (false, true), (false, false)] {
                    let allowed = |local: usize| -> bool {
                        let p = fg.rep_pos[local].xy();
                        (!use_ell || ellipse.contains(p))
                            && (!use_corr || corridor.iter().any(|r| r.contains_point(p)))
                    };
                    let (want, want_settled, want_path) =
                        filter_and_rebuild(&fg, &allowed, &src, &dst, policy);
                    let (got, settled, _, path) =
                        filtered_dijkstra(&fg, &csr, allowed, &src, &dst, b.pos, &mut dij);
                    prop_assert_eq!(got.to_bits(), want.to_bits());
                    prop_assert_eq!(&path, &want_path);
                    prop_assert!(settled <= want_settled);
                }
                Ok(())
                }).out?;
            }
        }
    }
}
