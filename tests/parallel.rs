//! Concurrency invariants of the batch query path.
//!
//! `Engine::try_query_batch` must be bit-identical to a sequential
//! `try_query` loop at any thread count: results depend only on the immutable
//! structures, never on pager pool state or scheduling order. These tests
//! double as the CI stress job — set `SKNN_STRESS_ITERS` to repeat the
//! batch comparison (CI runs 20 iterations in `--release` to shake out
//! interleaving-dependent failures that a single pass can miss), and
//! `SKNN_FAULT_PROFILE=seed:rate:kind` to run the whole comparison under
//! injected storage faults. With a recoverable kind (transient, bitflip)
//! the determinism contract is unchanged: the pager's retry budget
//! absorbs every fault, so results stay bit-identical — the CI fault
//! matrix pins this down at two seeds.

use surface_knn::core::config::Mr3Config;
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

/// Re-running the same batch on the same engine (warm pool, advanced
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
