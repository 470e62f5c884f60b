//! The library query loop (`Mr3Engine::try_query` on the caller's thread),
//! shared by `cold_io`, `warm_cpu` and `write_mix`'s reader, and the cost
//! roll-up that turns `QueryStats` into per-layer metrics.

use crate::pace::Pace;
use crate::stats::{answer_bits, median, ratio, well_formed, AnswerBits, Ops, Report};
use crate::trace::Tracer;
use std::time::Instant;
use surface_knn::core::metrics::QueryStats;
use surface_knn::prelude::*;
use surface_knn::store::StructureTag;

/// What the engine reported about the queries of one phase.
#[derive(Debug, Default)]
pub struct Costs {
    pub queries: f64,
    pub pages: f64,
    pub iterations: f64,
    pub candidates: f64,
    pub settled: f64,
    pub pushes: f64,
    pub pops: f64,
    pub stale_pops: f64,
    pub ub_estimations: f64,
    pub lb_estimations: f64,
    pub front_cache_hits: f64,
    pub cut_hits: f64,
    pub cut_misses: f64,
    pub cpu_ms: f64,
    /// Per-query wall time of MR3 steps 1–4, µs.
    pub step_us: [Vec<f64>; 4],
    /// Per-query `wall − Σ steps`, µs.
    pub self_us: Vec<f64>,
    // Counters read from the pager and R-tree after each query; only a
    // single-threaded caller may trust them (the engine resets them per
    // query), so only the traced library loop fills them in.
    pub physical: f64,
    pub logical: f64,
    pub evictions: f64,
    pub coalesced: f64,
    pub dmtm: (f64, f64),
    pub msdn: (f64, f64),
    pub rtree: f64,
    pub trace_records: f64,
}

impl Costs {
    fn absorb(&mut self, s: &QueryStats) {
        self.queries += 1.0;
        self.pages += s.pages as f64;
        self.iterations += s.iterations as f64;
        self.candidates += s.candidates as f64;
        self.settled += s.settled as f64;
        self.pushes += s.queue_pushes as f64;
        self.pops += s.queue_pops as f64;
        self.stale_pops += s.stale_pops as f64;
        self.ub_estimations += s.ub_estimations as f64;
        self.lb_estimations += s.lb_estimations as f64;
        self.front_cache_hits += s.front_cache_hits as f64;
        self.cut_hits += s.cut_cache_hits as f64;
        self.cut_misses += s.cut_cache_misses as f64;
        self.cpu_ms += s.cpu.as_secs_f64() * 1e3;
        let st = &s.stages;
        for (v, us) in
            self.step_us.iter_mut().zip([st.knn2d_us, st.radius_us, st.range_us, st.rank_us])
        {
            v.push(us as f64);
        }
        self.self_us.push(s.wall.as_secs_f64() * 1e6 - st.total_us() as f64);
    }

    /// The `store`/`multires`/`sdn`/`geodesic`/`core`/`spatial` rows.
    pub fn report(&self, rep: &mut Report) {
        let per_query = |v: f64| ratio(v, self.queries);
        rep.set("store.pages_per_query", per_query(self.pages));
        rep.set("store.physical_reads_per_query", per_query(self.physical));
        rep.set("store.pool_hit_ratio", ratio(self.logical - self.physical, self.logical));
        rep.set("store.evictions_per_query", per_query(self.evictions));
        rep.set("store.coalesced_misses_per_query", per_query(self.coalesced));
        rep.set("multires.dmtm_pages_physical", per_query(self.dmtm.0));
        rep.set("multires.dmtm_pages_logical", per_query(self.dmtm.1));
        rep.set("sdn.msdn_pages_physical", per_query(self.msdn.0));
        rep.set("sdn.msdn_pages_logical", per_query(self.msdn.1));
        rep.set(
            "multires.cutcache_hit_ratio",
            ratio(self.cut_hits, self.cut_hits + self.cut_misses),
        );
        rep.set("core.front_cache_hits_per_query", per_query(self.front_cache_hits));
        rep.set("geodesic.settled_per_query", per_query(self.settled));
        rep.set("geodesic.queue_pushes_per_query", per_query(self.pushes));
        rep.set("geodesic.stale_pop_ratio", ratio(self.stale_pops, self.pops));
        rep.set("core.ub_estimations_per_query", per_query(self.ub_estimations));
        rep.set("core.lb_estimations_per_query", per_query(self.lb_estimations));
        rep.set("core.iterations_per_query", per_query(self.iterations));
        rep.set("core.candidates_per_query", per_query(self.candidates));
        rep.set("core.cpu_ms_per_query", per_query(self.cpu_ms));
        rep.set("core.step1_knn2d_us", median(&self.step_us[0]));
        rep.set("core.step2_radius_us", median(&self.step_us[1]));
        rep.set("core.step3_range_us", median(&self.step_us[2]));
        rep.set("core.step4_rank_us", median(&self.step_us[3]));
        rep.set("core.self_us", median(&self.self_us));
        rep.set("spatial.rtree_accesses_per_query", per_query(self.rtree));
        rep.set("obs.records_per_query", per_query(self.trace_records));
    }
}

/// One measured stretch of library queries.
#[derive(Debug)]
pub struct Phase {
    pub start: Instant,
    pub ops: Ops,
    pub failed: u64,
    /// Costs of the phase's first pass over the pool only: a fixed op list,
    /// so every count in it repeats exactly for a seed however many more
    /// passes the window had time for.
    pub costs: Costs,
}

/// The library query loop: `pool` cycled through `engine.try_query` on
/// the caller's thread.
pub struct QueryLoop<'a, 'w> {
    pub engine: &'a Mr3Engine<'w, 'w>,
    pub pool: &'a [SurfacePoint],
    pub k: usize,
}

impl QueryLoop<'_, '_> {
    /// Run from op `first_op` until `keep_going(ops_done)` says stop,
    /// sampling the reference kernel into `pace` before every query.
    ///
    /// With `reference`, the first answer seen for each pool entry is kept
    /// and every later visit must reproduce it bit for bit; without, answers
    /// are only checked for form (the object set is changing under the
    /// reader). With `tracer`, each op also records its spans and counter
    /// snapshots.
    pub fn run(
        &self,
        first_op: u64,
        pace: &mut Pace,
        mut reference: Option<&mut Vec<Option<AnswerBits>>>,
        mut tracer: Option<&mut Tracer>,
        mut keep_going: impl FnMut(usize) -> bool,
    ) -> Phase {
        let QueryLoop { engine, pool, k } = *self;
        let mut costs = Costs::default();
        let mut ops = Ops::default();
        let mut failed = 0u64;
        let start = Instant::now();
        let mut op = first_op;
        while keep_going(ops.len()) {
            let slot = (op % pool.len() as u64) as usize;
            pace.sample();
            let stalled = engine.pager().stall_ns();
            let t0 = Instant::now();
            let outcome = engine.try_query(pool[slot], k);
            let t1 = Instant::now();
            let first_pass = ops.len() < pool.len();
            ops.push(t0, t1, (engine.pager().stall_ns() - stalled) as f64 / 1e9);
            let ok = match &outcome {
                Ok(res) => {
                    if first_pass {
                        costs.absorb(&res.stats);
                    }
                    let bits = answer_bits(&res.neighbors);
                    let repeats = match reference.as_deref_mut() {
                        Some(seen) => *seen[slot].get_or_insert_with(|| bits.clone()) == bits,
                        None => true,
                    };
                    res.degraded.is_none() && well_formed(&bits, k) && repeats
                }
                Err(_) => false,
            };
            failed += u64::from(!ok);
            if let (Some(tr), Ok(res)) = (tracer.as_deref_mut(), &outcome) {
                trace_query(tr, engine, op, t0, t1, res, first_pass.then_some(&mut costs));
            }
            op += 1;
        }
        Phase { start, ops, failed, costs }
    }
}

/// Spans `op ▸ core.try_query ▸ core.step1..4` and the counter snapshots
/// for one library query. The pager and R-tree counters are this query's
/// alone: the engine reset them when the query began and nothing else ran.
fn trace_query(
    tr: &mut Tracer,
    engine: &Mr3Engine<'_, '_>,
    op: u64,
    t0: Instant,
    t1: Instant,
    res: &surface_knn::core::QueryResult,
    costs: Option<&mut Costs>,
) {
    let start = tr.at(t0);
    let root = tr.span(op, 0, "op", start, tr.at(t1) - start);
    let wall_us = res.stats.wall.as_secs_f64() * 1e6;
    let call = tr.span(op, root, "core.try_query", start, wall_us);
    let st = &res.stats.stages;
    tr.children(
        op,
        call,
        start,
        &[
            ("core.step1_knn2d", st.knn2d_us as f64),
            ("core.step2_radius", st.radius_us as f64),
            ("core.step3_range", st.range_us as f64),
            ("core.step4_rank", st.rank_us as f64),
        ],
    );

    let pager = engine.pager();
    let io = pager.stats();
    let rtree = engine.objects().snapshot().rtree().accesses();
    if let Some(costs) = costs {
        costs.physical += io.physical_reads as f64;
        costs.logical += io.logical_reads as f64;
        costs.evictions += pager.evictions() as f64;
        costs.coalesced += pager.concurrency_stats().coalesced_misses as f64;
        for (tag, s) in pager.io_by_structure() {
            let slot = match tag {
                StructureTag::Dmtm => &mut costs.dmtm,
                StructureTag::Msdn => &mut costs.msdn,
                _ => continue,
            };
            slot.0 += s.physical_reads as f64;
            slot.1 += s.logical_reads as f64;
        }
        costs.rtree += rtree as f64;
        costs.trace_records += res.trace.as_ref().map_or(0, |t| t.records.len()) as f64;
    }

    tr.count(op, "store.physical_reads", io.physical_reads as f64);
    tr.count(op, "store.logical_reads", io.logical_reads as f64);
    tr.count(op, "multires.cutcache_hits", res.stats.cut_cache_hits as f64);
    tr.count(op, "multires.cutcache_misses", res.stats.cut_cache_misses as f64);
    tr.count(op, "spatial.rtree_accesses", rtree as f64);
}
