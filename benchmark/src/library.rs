//! `cold_io` and `warm_cpu`: `Mr3Engine::try_query` called directly, one
//! thread, no network. The two differ only in cache regime and traffic
//! shape, which is the point — one stresses the paged structures, the
//! other bypasses them.

use crate::pace::Pace;
use crate::queries::QueryLoop;
use crate::stats::{median, ratio, AnswerBits, Fingerprint, Report};
use crate::trace::Tracer;
use crate::world::{self, stream, with_cold_builds, Rng, World};
use crate::{probes, Ctx};
use std::time::{Duration, Instant};

/// The paper's disk: every buffer-pool miss costs a millisecond of wall
/// clock, so `cold_io`'s latency has an I/O share worth optimising.
const COLD_READ_STALL: Duration = Duration::from_millis(1);

pub fn run(ctx: &Ctx, cold: bool, rep: &mut Report) {
    let ready_at_once = |_: &World<'_>, ready: &mut dyn FnMut()| ready();
    let ((), setup_s) =
        with_cold_builds(ctx, ctx.objects, 1, ready_at_once, |w| measure(ctx, cold, w, rep));
    if !ctx.traced {
        rep.set("setup_s", setup_s);
    }
}

fn measure(ctx: &Ctx, cold: bool, mut w: World<'_>, rep: &mut Report) {
    let name = if cold { "cold_io" } else { "warm_cpu" };
    let engine = &mut w.engines[0];
    engine.cold_cache = cold;
    let pool = if cold {
        engine.pager().set_read_stall(COLD_READ_STALL);
        world::uniform_points(w.scene, ctx.cold_pool, &mut Rng::new(ctx.seed, stream::QUERIES))
    } else {
        world::hot_mix(ctx, w.scene, ctx.warm_pool)
    };
    // The first answer to each pool entry; every later visit must
    // reproduce it bit for bit.
    let mut reference: Vec<Option<AnswerBits>> = vec![None; pool.len()];
    let mut next_op = 0u64;
    let mut failed = 0u64;
    // Kernel samples of the measured window only.
    let mut pace = Pace::new();
    let one_pass = |done: usize| done < pool.len();

    if !cold {
        // Let the caches fill before any clock starts.
        let p = QueryLoop { engine, pool: &pool, k: ctx.k }.run(
            0,
            &mut Pace::new(),
            Some(&mut reference),
            None,
            one_pass,
        );
        next_op += p.ops.len() as u64;
        failed += p.failed;
    }
    let window = Duration::from_secs_f64(ctx.seconds);
    if !ctx.traced {
        // At least one full pass, so the exact counts cover a fixed list.
        let until = Instant::now() + window;
        let p = QueryLoop { engine, pool: &pool, k: ctx.k }.run(
            next_op,
            &mut pace,
            Some(&mut reference),
            None,
            |done| one_pass(done) || Instant::now() < until,
        );
        next_op += p.ops.len() as u64;
        failed += p.failed;
        p.ops.report(rep, &pace.clock(), p.start);
        eprintln!(
            "{name}: pages/query over the first pass {}",
            ratio(p.costs.pages, p.costs.queries)
        );
    } else {
        // The traced window first, then an untraced reference over the
        // next quarter of the pool. The pool is cycled, so both visit
        // every entry one pass after its last visit; the ratio of their
        // medians over the same entries is what tracing costs.
        engine.enable_tracing();
        let cut_cache_before = crate::cut_cache_counts(&[engine]);
        let stall_before = engine.pager().stall_ns();
        let mut tracer = Tracer::new();
        let until = Instant::now() + window * 3 / 4;
        let first_traced = next_op;
        let p = QueryLoop { engine, pool: &pool, k: ctx.k }.run(
            next_op,
            &mut pace,
            Some(&mut reference),
            Some(&mut tracer),
            |done| one_pass(done) || Instant::now() < until,
        );
        engine.disable_tracing();
        next_op += p.ops.len() as u64;
        failed += p.failed;
        let stall_ms = (engine.pager().stall_ns() - stall_before) as f64 / 1e6;
        let quarter = (pool.len() / 4).max(1);
        let plain = QueryLoop { engine, pool: &pool, k: ctx.k }.run(
            next_op,
            &mut pace,
            Some(&mut reference),
            None,
            |done| done < quarter,
        );
        failed += plain.failed;
        // The traced window's last visit to each entry the reference visited.
        let traced_ms = p.ops.raw_ms();
        let slot_of = |op: u64| (op % pool.len() as u64) as usize;
        let same_entries: Vec<f64> = (0..quarter as u64)
            .filter_map(|i| {
                let slot = slot_of(next_op + i);
                (0..p.ops.len()).rev().find(|&j| slot_of(first_traced + j as u64) == slot)
            })
            .map(|j| traced_ms[j])
            .collect();
        next_op += plain.ops.len() as u64;
        rep.set(
            "obs.trace_overhead_ratio",
            ratio(median(&same_entries), median(&plain.ops.raw_ms())),
        );
        p.costs.report(rep);
        let queries = p.ops.len() as f64;
        rep.set("store.stall_ms_per_query", ratio(stall_ms, queries));
        crate::report_cut_cache(rep, &[engine], cut_cache_before, queries);
        crate::report_build(rep, &w.times);
        probes::run(ctx, engine, w.mesh, &pool, rep);
        crate::write_trace(ctx, name, &tracer);
    }

    let mut fp = Fingerprint::default();
    for &(id, lb, ub) in reference.iter().flatten().flatten() {
        fp.absorb(id as u64);
        fp.absorb(lb);
        fp.absorb(ub);
    }
    println!("fingerprint {name} seed={} answers={:#018x}", ctx.seed, fp.0);
    rep.attempted = next_op;
    rep.failed = failed;
}
