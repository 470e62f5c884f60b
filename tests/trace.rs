//! End-to-end tests of the query tracing subsystem: run traced queries
//! on a seeded scene and check the stream invariants documented in
//! `sknn_obs::trace` — valid JSONL, one span per MR3 step, monotone
//! bound convergence, and per-structure page attribution that adds up.

use std::collections::{BTreeMap, BTreeSet};
use surface_knn::obs::json;
use surface_knn::obs::QueryTrace;
use surface_knn::prelude::*;

/// Seeded fixture matching the paper's BH terrain, small enough for CI.
fn fixture() -> (TerrainMesh, u64) {
    (TerrainConfig::bh().with_grid(33).build_mesh(42), 42)
}

#[test]
fn untraced_engine_returns_no_trace() {
    let (mesh, seed) = fixture();
    let scene = SceneBuilder::new(&mesh).object_count(40).seed(seed ^ 1).build();
    let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
    let res = engine.try_query(scene.random_query(seed ^ 7), 5).unwrap();
    assert!(res.trace.is_none());
    assert_eq!(res.neighbors.len(), 5);
}

#[test]
fn traced_query_emits_valid_jsonl_with_step_spans() {
    let (mesh, seed) = fixture();
    let scene = SceneBuilder::new(&mesh).object_count(40).seed(seed ^ 1).build();
    let mut engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
    engine.enable_tracing();
    let res = engine.try_query(scene.random_query(seed ^ 7), 5).unwrap();
    let trace = res.trace.expect("tracing enabled but no trace returned");
    assert_eq!(trace.dropped, 0);

    // Every line of the export is standalone valid JSON.
    let jsonl = trace.to_jsonl();
    assert_eq!(jsonl.lines().count(), trace.records.len());
    for line in jsonl.lines() {
        json::validate(line).unwrap_or_else(|e| panic!("invalid JSONL {line:?}: {e}"));
    }

    // One span per MR3 step plus the closing roll-up.
    let names: Vec<&str> = trace.spans().iter().map(|s| s.name).collect();
    for step in ["step1_knn2d", "step2_radius", "step3_range", "step4_rank", "query"] {
        assert_eq!(
            names.iter().filter(|n| **n == step).count(),
            1,
            "expected exactly one {step} span in {names:?}"
        );
    }

    // At least one ranking iteration was recorded, with its schedule facts.
    let iters = trace.iter_events();
    assert!(!iters.is_empty());
    assert!(iters.iter().any(|e| e.phase == "rank"));
    assert!(iters.iter().all(|e| e.dmtm_frac > 0.0));
}

#[test]
fn rank_phase_bounds_converge_monotonically() {
    let (mesh, seed) = fixture();
    let scene = SceneBuilder::new(&mesh).object_count(60).seed(seed ^ 1).build();
    let mut engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
    engine.enable_tracing();
    for q in scene.random_queries(3, seed ^ 7) {
        let res = engine.try_query(q, 5).unwrap();
        let trace = res.trace.expect("trace");
        let rank: Vec<_> = trace.iter_events().into_iter().filter(|e| e.phase == "rank").collect();
        assert!(rank.len() >= 2, "need several rank iterations to observe convergence");
        for w in rank.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            // Upper bounds only tighten as resolution rises, so the k-th
            // smallest UB never grows; lower bounds only tighten, so the
            // (k+1)-th smallest LB never shrinks; eliminated candidates
            // stay eliminated.
            assert!(b.kth_ub <= a.kth_ub + 1e-9, "kth_ub grew: {} -> {}", a.kth_ub, b.kth_ub);
            assert!(
                b.next_lb >= a.next_lb - 1e-9,
                "next_lb shrank: {} -> {}",
                a.next_lb,
                b.next_lb
            );
            assert!(b.alive <= a.alive, "alive grew: {} -> {}", a.alive, b.alive);
        }
        // The run ends with the bounds actually separated.
        assert!(rank.last().unwrap().resolved || rank.last().unwrap().dmtm_frac > 1.0);
    }
}

#[test]
fn io_attribution_sums_to_query_pages() {
    let (mesh, seed) = fixture();
    let scene = SceneBuilder::new(&mesh).object_count(40).seed(seed ^ 1).build();
    let mut engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
    engine.enable_tracing();
    let res = engine.try_query(scene.random_query(seed ^ 7), 5).unwrap();
    let trace = res.trace.expect("trace");

    let io = trace.io_by_structure();
    assert!(!io.is_empty());
    let physical: u64 = io.iter().map(|(_, _, p)| p).sum();
    let logical: u64 = io.iter().map(|(_, l, _)| l).sum();
    assert!(physical <= logical, "hits cannot be negative");
    assert_eq!(physical, res.stats.pages, "per-structure physical reads must sum to stats");

    let query_span = trace.records.iter().find(|r| r.name == "query").expect("closing query span");
    assert_eq!(query_span.get_u64("pages"), Some(res.stats.pages));
}

/// A trace belongs to its query: in a traced 4-thread batch every result
/// carries one query id, one closing `query` span, and the same record
/// names its sequential run emits. `io` events are left out — which
/// structures a query charges reads to depends on what the shared pool
/// held when it ran.
#[test]
fn concurrent_traced_queries_keep_their_own_records() {
    let (mesh, seed) = fixture();
    let scene = SceneBuilder::new(&mesh).object_count(40).seed(seed ^ 1).build();
    let mut engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
    engine.enable_tracing();
    let batch: Vec<(SurfacePoint, usize)> =
        scene.random_queries(16, seed ^ 3).into_iter().map(|q| (q, 5)).collect();
    let names = |trace: &QueryTrace| {
        let mut m = BTreeMap::new();
        for r in trace.records.iter().filter(|r| r.name != "io") {
            *m.entry(r.name).or_insert(0usize) += 1;
        }
        m
    };
    let sequential: Vec<_> = batch
        .iter()
        .map(|&(q, k)| names(&engine.try_query(q, k).unwrap().trace.expect("trace")))
        .collect();
    for (i, res) in engine.try_query_batch(&batch, 4).into_iter().enumerate() {
        let trace = res.expect("fault-free query").trace.expect("trace");
        let ids: BTreeSet<u64> = trace.records.iter().map(|r| r.query).collect();
        assert_eq!(ids.len(), 1, "query {i}: records of {} queries: {ids:?}", ids.len());
        assert_eq!(names(&trace).get("query"), Some(&1), "query {i}");
        assert_eq!(names(&trace), sequential[i], "query {i}");
    }
}
