//! Concurrency invariants of the batch query path.
//!
//! `Engine::try_query_batch` must be bit-identical to a sequential
//! `try_query` loop at any thread count: results depend only on the immutable
//! structures, never on cache state or scheduling order. These tests
//! double as the CI stress job — set `SKNN_STRESS_ITERS` to repeat the
//! batch comparison (CI runs 20 iterations in `--release` to shake out
//! interleaving-dependent failures that a single pass can miss), and
//! `SKNN_FAULT_PROFILE=seed:rate:kind` to run the whole comparison under
//! injected storage faults. With a recoverable kind (transient, bitflip)
//! the determinism contract is unchanged: the pager's retry budget
//! absorbs every fault, so results stay bit-identical — the CI fault
//! matrix pins this down at two seeds.
//!
//! The per-query counters are exact at any thread count too: a query runs
//! on one worker thread and reads the pager and R-tree windows that thread
//! opened at query start. So a batch's per-query pool counts sum to the
//! pager's lifetime deltas over the batch (conservation), each query's
//! R-tree accesses equal its sequential run's, and so do EA's per-query
//! pages: a window charges each page once, whatever other threads read.

use surface_knn::core::config::Mr3Config;
use surface_knn::core::ea::EaEngine;
use surface_knn::core::metrics::QueryResult;
use surface_knn::core::mr3::Mr3Engine;
use surface_knn::core::workload::{SceneBuilder, SurfacePoint};
use surface_knn::prelude::*;

fn stress_iters() -> usize {
    std::env::var("SKNN_STRESS_ITERS").ok().and_then(|v| v.parse().ok()).unwrap_or(1)
}

/// Install the `SKNN_FAULT_PROFILE` injector, if the env var is set.
fn install_fault_profile(engine: &Mr3Engine) {
    let Ok(spec) = std::env::var("SKNN_FAULT_PROFILE") else { return };
    if spec.is_empty() {
        return;
    }
    let profile = FaultProfile::parse(&spec).expect("SKNN_FAULT_PROFILE must be seed:rate:kind");
    engine.pager().set_fault_injector(Some(FaultInjector::from_profile(&profile)));
}
/// `try_query_batch` with every query answered.
fn answers(
    engine: &Mr3Engine,
    batch: &[(SurfacePoint, usize)],
    threads: usize,
) -> Vec<QueryResult> {
    engine.try_query_batch(batch, threads).into_iter().map(Result::unwrap).collect()
}

/// Neighbour ids and the exact f64 bit patterns of both bounds.
fn fingerprint(results: &[QueryResult]) -> Vec<Vec<(u32, u64, u64)>> {
    results
        .iter()
        .map(|r| {
            r.neighbors.iter().map(|n| (n.id, n.range.lb.to_bits(), n.range.ub.to_bits())).collect()
        })
        .collect()
}

#[test]
fn batch_is_bit_identical_to_sequential() {
    let mesh = TerrainConfig::bh().with_grid(25).build_mesh(909);
    let scene = SceneBuilder::new(&mesh).object_count(30).seed(910).build();
    let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
    install_fault_profile(&engine);

    let k = 4;
    let qs = scene.random_queries(12, 911);
    let batch: Vec<(SurfacePoint, usize)> = qs.iter().map(|&q| (q, k)).collect();

    let sequential: Vec<QueryResult> =
        qs.iter().map(|&q| engine.try_query(q, k).unwrap()).collect();
    let expect = fingerprint(&sequential);
    for n in &sequential {
        assert_eq!(n.neighbors.len(), k.min(scene.num_objects()));
    }

    for iter in 0..stress_iters() {
        for threads in [2usize, 4, 8] {
            let parallel = answers(&engine, &batch, threads);
            assert_eq!(
                fingerprint(&parallel),
                expect,
                "batch at {threads} threads diverged from sequential (iter {iter})"
            );
        }
    }
}

/// Threads racing to fill the engine's whole-terrain front table answer
/// as the sequential run does, at 4 and 8 threads: on a warm engine whose
/// caches and table are emptied before each batch, and on one whose units
/// are all resident and whose table is empty, so that bounded groups race
/// to derive and publish every front step. However the race goes, the
/// table ends with at most one front per step — with every unit resident,
/// exactly one per front step of the schedule.
#[test]
fn racing_to_fill_the_front_table_keeps_answers_bit_identical() {
    let mesh = TerrainConfig::bh().with_grid(25).build_mesh(909);
    let scene = SceneBuilder::new(&mesh).object_count(30).seed(910).build();
    let cfg = Mr3Config::default();
    let mut engine = Mr3Engine::build(&mesh, &scene, &cfg);
    engine.cold_cache = false;
    install_fault_profile(&engine);

    let k = 4;
    let qs = scene.random_queries(12, 911);
    let batch: Vec<(SurfacePoint, usize)> = qs.iter().map(|&q| (q, k)).collect();
    engine.clear_cut_caches();
    let sequential: Vec<QueryResult> =
        qs.iter().map(|&q| engine.try_query(q, k).unwrap()).collect();
    let expect = fingerprint(&sequential);
    let front_steps = cfg.schedule.dmtm.iter().filter(|&&f| f <= 1.0).count();
    let one_per_step = |engine: &Mr3Engine| {
        let mut steps = engine.whole_front_steps();
        let held = steps.len();
        steps.sort_unstable();
        steps.dedup();
        assert!(held > 0 && steps.len() == held, "one front per step: {held} for {steps:?}");
        held
    };

    for iter in 0..stress_iters() {
        for threads in [4usize, 8] {
            engine.clear_cut_caches();
            let parallel = answers(&engine, &batch, threads);
            assert_eq!(
                fingerprint(&parallel),
                expect,
                "batch at {threads} threads diverged from sequential (iter {iter})"
            );
            let shared: usize = parallel.iter().map(|r| r.stats.shared_fronts).sum();
            assert!(shared > 0, "later queries share the published fronts");
            one_per_step(&engine);

            // Every unit resident, no front published: fresh candidates'
            // plans read the whole lattice at every front step.
            engine.clear_cut_caches();
            for i in 0..front_steps {
                engine.plan_iteration(qs[0], 10, i, &[]).unwrap();
            }
            let parallel = answers(&engine, &batch, threads);
            assert_eq!(
                fingerprint(&parallel),
                expect,
                "batch at {threads} threads racing over resident units diverged (iter {iter})"
            );
            let derived: usize = parallel.iter().map(|r| r.stats.derived_fronts).sum();
            assert!(derived >= front_steps, "{derived} fronts derived for {front_steps} steps");
            assert_eq!(one_per_step(&engine), front_steps);
        }
    }
}

/// A 1-thread batch takes the sequential fast path and must agree too.
#[test]
fn single_thread_batch_matches_query_loop() {
    let mesh = TerrainConfig::ep().with_grid(17).build_mesh(77);
    let scene = SceneBuilder::new(&mesh).object_count(20).seed(78).build();
    let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
    install_fault_profile(&engine);

    let qs = scene.random_queries(5, 79);
    let batch: Vec<(SurfacePoint, usize)> = qs.iter().map(|&q| (q, 3)).collect();
    let seq: Vec<QueryResult> = qs.iter().map(|&q| engine.try_query(q, 3).unwrap()).collect();
    assert_eq!(fingerprint(&answers(&engine, &batch, 1)), fingerprint(&seq));
}

/// Re-running the same batch on the same engine (warm caches, advanced
/// query-id counter) must still reproduce the same answers.
#[test]
fn batch_is_stable_across_repeated_runs() {
    let mesh = TerrainConfig::bh().with_grid(17).build_mesh(313);
    let scene = SceneBuilder::new(&mesh).object_count(25).seed(314).build();
    let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
    install_fault_profile(&engine);

    let batch: Vec<(SurfacePoint, usize)> =
        scene.random_queries(6, 315).into_iter().map(|q| (q, 5)).collect();
    let first = fingerprint(&answers(&engine, &batch, 4));
    for _ in 0..stress_iters().min(5) {
        assert_eq!(fingerprint(&answers(&engine, &batch, 4)), first);
    }
}

/// The per-query totals of a traced query's `pool` event: logical reads,
/// physical reads and stalled batches.
fn pool_counts(res: &QueryResult) -> [u64; 3] {
    let trace = res.trace.as_ref().expect("a traced query");
    let pool = trace.records.iter().find(|r| r.name == "pool").expect("a pool event");
    ["logical", "physical", "stalled_batches"].map(|key| pool.get_u64(key).expect(key))
}

/// The same three counts over the pager's lifetime, every thread's.
fn lifetime_counts(engine: &Mr3Engine) -> [u64; 3] {
    let io = engine.pager().lifetime_stats();
    [io.logical_reads, io.physical_reads, engine.pager().lifetime_stalled_batches()]
}

/// Conservation: what the queries of a cold batch report in their `pool`
/// events sums to exactly what the pager served over the batch, at 1, 4
/// and 8 threads. Under a shared window, concurrent queries' reads and
/// resets would land in each other's counts.
#[test]
fn per_query_pool_counts_sum_to_the_batch_lifetime_deltas() {
    let mesh = TerrainConfig::bh().with_grid(25).build_mesh(909);
    let scene = SceneBuilder::new(&mesh).object_count(30).seed(910).build();
    let mut engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
    engine.enable_tracing();
    install_fault_profile(&engine);
    assert!(engine.cold_cache, "every query starts from empty cut caches");

    let batch: Vec<(SurfacePoint, usize)> =
        scene.random_queries(16, 912).into_iter().map(|q| (q, 4)).collect();
    for iter in 0..stress_iters() {
        for threads in [1usize, 4, 8] {
            let before = lifetime_counts(&engine);
            let reported = answers(&engine, &batch, threads)
                .iter()
                .map(pool_counts)
                .fold([0; 3], |sum, q| std::array::from_fn(|i| sum[i] + q[i]));
            let after = lifetime_counts(&engine);
            let served: [u64; 3] = std::array::from_fn(|i| after[i] - before[i]);
            assert_eq!(
                reported, served,
                "[logical, physical, stalled batches] at {threads} threads (iter {iter})"
            );
            assert!(served[1] > 0, "a cold batch reads pages");
        }
    }
}

/// A query's R-tree node accesses, from its `io` event (none means 0).
fn rtree_accesses(res: &QueryResult) -> u64 {
    let trace = res.trace.as_ref().expect("a traced query");
    trace.io_by_structure().into_iter().find(|&(s, _, _)| s == "rtree").map_or(0, |(_, n, _)| n)
}

/// Each query's R-tree node accesses at 8 threads equal its sequential
/// run's, query by query: the tree's access windows are per thread.
#[test]
fn per_query_rtree_accesses_match_sequential_at_eight_threads() {
    let mesh = TerrainConfig::bh().with_grid(25).build_mesh(909);
    let scene = SceneBuilder::new(&mesh).object_count(30).seed(910).build();
    let mut engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
    engine.enable_tracing();
    install_fault_profile(&engine);

    let batch: Vec<(SurfacePoint, usize)> =
        scene.random_queries(16, 913).into_iter().map(|q| (q, 4)).collect();
    let sequential: Vec<u64> =
        batch.iter().map(|&(q, k)| rtree_accesses(&engine.try_query(q, k).unwrap())).collect();
    assert!(sequential.iter().all(|&n| n > 0), "every query visits the tree: {sequential:?}");
    for iter in 0..stress_iters() {
        let parallel: Vec<u64> = answers(&engine, &batch, 8).iter().map(rtree_accesses).collect();
        assert_eq!(parallel, sequential, "R-tree accesses at 8 threads (iter {iter})");
    }
}

/// EA's per-query pages at 4 threads equal its sequential run's, query by
/// query. EA has no cut cache, so everything it charges is its pager
/// window's: a page another thread read meanwhile is neither free nor
/// lost for it.
#[test]
fn ea_pages_at_four_threads_match_sequential() {
    let mesh = TerrainConfig::bh().with_grid(17).build_mesh(909);
    let scene = SceneBuilder::new(&mesh).object_count(20).seed(910).build();
    let ea = EaEngine::build(&mesh, &scene);
    let qs = scene.random_queries(8, 914);
    let pages =
        |threads| surface_knn::exec::par_map(threads, &qs, |_, &q| ea.query(q, 4).stats.pages);
    let sequential = pages(1);
    assert!(sequential.iter().all(|&p| p > 0), "every query reads pages: {sequential:?}");
    for iter in 0..stress_iters() {
        assert_eq!(pages(4), sequential, "EA pages at 4 threads (iter {iter})");
    }
}
