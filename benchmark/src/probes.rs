//! Layer probes: each replays one public function of one layer over
//! inputs derived from the workload's own query pool, outside any measured
//! window. When `core.step4_rank_us` moves, these say which layer moved it.

use crate::stats::{mean, ratio, Report};
use crate::Ctx;
use std::hint::black_box;
use std::time::Instant;
use surface_knn::core::persist::Structures;
use surface_knn::geodesic::pathnet::Pathnet;
use surface_knn::geom::{Point2, Rect2};
use surface_knn::multires::{CutGrid, PagedDmtm};
use surface_knn::prelude::*;
use surface_knn::sdn::PagedMsdn;
use surface_knn::store::Pager;

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Time `f` and count the physical reads it causes on `pager`.
fn paged<R>(pager: &Pager, us: &mut Vec<f64>, pages: &mut Vec<f64>, f: impl FnOnce() -> R) {
    pager.reset_stats();
    let t = Instant::now();
    black_box(f());
    us.push(us_since(t));
    pages.push(pager.stats().physical_reads as f64);
}

pub fn run(
    ctx: &Ctx,
    engine: &Mr3Engine<'_, '_>,
    mesh: &TerrainMesh,
    pool: &[SurfacePoint],
    rep: &mut Report,
) {
    let cfg = engine.config();
    let queries = &pool[..pool.len().min(if ctx.smoke { 4 } else { 16 })];

    // spatial: the two R-tree entry points MR3 steps 1 and 3 use. The
    // farthest seed doubles as the far end of every pair probe below, and
    // twice its plan distance stands in for a step-2 radius.
    let (mut knn_us, mut range_us) = (Vec::new(), Vec::new());
    let mut pairs: Vec<(SurfacePoint, SurfacePoint, Rect2)> = Vec::new();
    let grid = CutGrid::new(mesh.extent(), cfg.cut_cache.tiles, cfg.cut_cache.pad_tiles);
    for &q in queries {
        let xy = q.pos.xy();
        let t = Instant::now();
        let seeds = black_box(engine.seeds2d(xy, ctx.k));
        knn_us.push(us_since(t));
        let Some(&(dist, _, far)) = seeds.last() else { continue };
        let radius = 2.0 * dist;
        let t = Instant::now();
        black_box(engine.range2d(xy, radius));
        range_us.push(us_since(t));
        let raw = Rect2::new(
            Point2::new(xy.x - radius, xy.y - radius),
            Point2::new(xy.x + radius, xy.y + radius),
        );
        pairs.push((q, far, grid.snap(&raw)));
    }
    rep.set("spatial.knn_us", mean(&knn_us));
    rep.set("spatial.range_us", mean(&range_us));

    // multires / sdn / geodesic: their own copies of the structures on
    // their own pager, so the probes see each layer alone.
    let Structures { tree, msdn } = Structures::build(mesh, cfg);
    let pager = Pager::new(cfg.pool_pages);
    let dmtm = PagedDmtm::build(&pager, tree);
    let paged_msdn = PagedMsdn::build(&pager, &msdn);
    let pathnet = Pathnet::build(mesh, cfg.pathnet_steiner, None);

    let (mut us, mut pages) = (Vec::new(), Vec::new());
    for (_, _, roi) in &pairs {
        for &fraction in cfg.schedule.dmtm.iter().filter(|&&f| f <= 1.0) {
            let m = dmtm.tree().step_for_fraction(fraction);
            paged(&pager, &mut us, &mut pages, || dmtm.fetch_front(&pager, m, Some(roi)));
        }
    }
    rep.set("multires.fetch_front_us", mean(&us));
    rep.set("multires.fetch_front_pages", mean(&pages));

    let (mut us, mut pages) = (Vec::new(), Vec::new());
    for (a, b, roi) in &pairs {
        for level in 0..paged_msdn.num_levels() {
            paged(&pager, &mut us, &mut pages, || {
                paged_msdn.lower_bound(&pager, level, a.pos, b.pos, Some(roi))
            });
        }
    }
    rep.set("sdn.lower_bound_us", mean(&us));
    rep.set("sdn.lower_bound_pages", mean(&pages));

    let mut us = Vec::new();
    for (a, b, _) in &pairs {
        let t = Instant::now();
        black_box(pathnet.distance(mesh, a.to_mesh_point(), b.to_mesh_point()));
        us.push(us_since(t));
    }
    rep.set("geodesic.pathnet_distance_us", mean(&us));

    // core: one progressive pair estimate through the engine (a whole
    // refinement schedule per call, so a few calls are plenty).
    let mut us = Vec::new();
    for &(a, b, _) in pairs.iter().take(4) {
        let t = Instant::now();
        black_box(engine.distance_with_accuracy(a, b, 0.95));
        us.push(us_since(t));
    }
    rep.set("core.pair_estimate_us", mean(&us));

    // exec: what the pool costs per item when the items are free, and what
    // it buys on one fixed batch of real queries.
    let items: Vec<u64> = (0..1 << 16).collect();
    let t = Instant::now();
    black_box(surface_knn::exec::par_map(ctx.clients, &items, |_, &x| x.wrapping_mul(0x9E37)));
    rep.set("exec.par_map_ns_per_item", t.elapsed().as_secs_f64() * 1e9 / items.len() as f64);
    let batch: Vec<(SurfacePoint, usize)> =
        pool.iter().take(if ctx.smoke { 4 } else { 16 }).map(|&q| (q, ctx.k)).collect();
    let timed = |threads: usize| {
        let t = Instant::now();
        black_box(engine.try_query_batch(&batch, threads));
        t.elapsed().as_secs_f64()
    };
    // Once untimed, so both timed runs find the caches as the other left them.
    timed(ctx.clients);
    let one = timed(1);
    rep.set("exec.batch_speedup", ratio(one, timed(ctx.clients)));
}
