//! Cross-crate integration tests: the full MR3 / EA / CH pipelines against
//! each other on both terrain presets.

use surface_knn::core::ch::ChEngine;
use surface_knn::core::config::{Mr3Config, StepSchedule};
use surface_knn::core::ea::EaEngine;
use surface_knn::core::mr3::Mr3Engine;
use surface_knn::core::workload::{Scene, SceneBuilder};
use surface_knn::prelude::*;
use surface_knn::terrain::mesh::TerrainMesh;

fn scenes() -> Vec<(&'static str, TerrainMesh)> {
    vec![
        ("BH", TerrainConfig::bh().with_grid(17).build_mesh(1001)),
        ("EP", TerrainConfig::ep().with_grid(17).build_mesh(1002)),
    ]
}

/// The exact distance of every returned neighbour must not exceed the true
/// k-th distance beyond the approximation budget (the 1-Steiner pathnet
/// tops out around the paper's 97 % accuracy setting).
fn assert_result_quality(
    label: &str,
    scene: &Scene<'_>,
    exact: &ChEngine<'_, '_>,
    q: surface_knn::core::workload::SurfacePoint,
    neighbors: &[surface_knn::core::metrics::Neighbor],
    k: usize,
) {
    assert_eq!(neighbors.len(), k, "{label}: wrong k");
    let truth = exact.query(q, k);
    let kth = truth.neighbors.last().unwrap().range.ub;
    for n in neighbors {
        let d = exact.pair_distance(q, scene.object(n.id).point);
        assert!(
            d <= kth * 1.06 + 1e-6,
            "{label}: neighbor {} at {d:.3} vs true kth {kth:.3}",
            n.id
        );
        // And the reported range must bracket the true distance.
        assert!(
            n.range.lb <= d + 1e-6 && d <= n.range.ub + 1e-6,
            "{label}: range [{}, {}] misses exact {d}",
            n.range.lb,
            n.range.ub
        );
    }
}

#[test]
fn mr3_matches_ground_truth_on_both_terrains() {
    for (label, mesh) in scenes() {
        let scene = SceneBuilder::new(&mesh).object_count(25).seed(5).build();
        let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
        let exact = ChEngine::new(&scene);
        for qseed in [11u64, 22, 33] {
            let q = scene.random_query(qseed);
            for k in [1usize, 3, 7] {
                let res = engine.try_query(q, k).unwrap();
                assert_result_quality(label, &scene, &exact, q, &res.neighbors, k);
            }
        }
    }
}

#[test]
fn ea_matches_ground_truth_on_both_terrains() {
    for (label, mesh) in scenes() {
        let scene = SceneBuilder::new(&mesh).object_count(20).seed(6).build();
        let ea = EaEngine::build(&mesh, &scene, 256);
        let exact = ChEngine::new(&scene);
        for qseed in [4u64, 8] {
            let q = scene.random_query(qseed);
            let res = ea.query(q, 4);
            assert_eq!(res.neighbors.len(), 4, "{label}");
            let truth = exact.query(q, 4);
            let kth = truth.neighbors.last().unwrap().range.ub;
            for n in &res.neighbors {
                let d = exact.pair_distance(q, scene.object(n.id).point);
                assert!(d <= kth * 1.07 + 1e-6, "{label}: {d} vs {kth}");
            }
        }
    }
}

#[test]
fn all_schedules_return_equivalent_answers() {
    let mesh = TerrainConfig::ep().with_grid(17).build_mesh(77);
    let scene = SceneBuilder::new(&mesh).object_count(30).seed(9).build();
    let exact = ChEngine::new(&scene);
    let q = scene.random_query(2);
    let k = 5;
    let truth = exact.query(q, k);
    let kth = truth.neighbors.last().unwrap().range.ub;
    for sched in [StepSchedule::s1(), StepSchedule::s2(), StepSchedule::s3()] {
        let name = sched.name;
        let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default().with_schedule(sched));
        let res = engine.try_query(q, k).unwrap();
        for n in &res.neighbors {
            let d = exact.pair_distance(q, scene.object(n.id).point);
            assert!(d <= kth * 1.06 + 1e-6, "{name}: {d} vs kth {kth}");
        }
    }
}

#[test]
fn mr3_is_cheaper_than_ea_in_cpu() {
    let mesh = TerrainConfig::bh().with_grid(33).build_mesh(3003);
    let scene = SceneBuilder::new(&mesh).object_count(40).seed(4).build();
    let mr3 = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
    let ea = EaEngine::build(&mesh, &scene, 256);
    let qs = scene.random_queries(3, 12);
    let (mut mr3_cpu, mut ea_cpu) = (0.0, 0.0);
    for &q in &qs {
        mr3_cpu += mr3.try_query(q, 10).unwrap().stats.cpu.as_secs_f64();
        ea_cpu += ea.query(q, 10).stats.cpu.as_secs_f64();
    }
    assert!(ea_cpu > 2.0 * mr3_cpu, "EA cpu {ea_cpu:.4}s not clearly above MR3 cpu {mr3_cpu:.4}s");
}

#[test]
fn page_accounting_is_deterministic_and_positive() {
    let mesh = TerrainConfig::bh().with_grid(17).build_mesh(21);
    let scene = SceneBuilder::new(&mesh).object_count(15).seed(2).build();
    let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
    let q = scene.random_query(1);
    let a = engine.try_query(q, 3).unwrap();
    let b = engine.try_query(q, 3).unwrap();
    assert!(a.stats.pages > 0);
    assert_eq!(a.stats.pages, b.stats.pages);
    assert_eq!(a.stats.iterations, b.stats.iterations);
    let ids = |r: &surface_knn::core::metrics::QueryResult| {
        r.neighbors.iter().map(|n| n.id).collect::<Vec<_>>()
    };
    assert_eq!(ids(&a), ids(&b));
}

#[test]
fn degenerate_workloads() {
    let mesh = TerrainConfig::ep().with_grid(9).build_mesh(8);
    let scene = SceneBuilder::new(&mesh).object_count(1).seed(1).build();
    let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
    let q = scene.random_query(1);
    // k = 0 and k beyond the population.
    assert!(engine.try_query(q, 0).unwrap().neighbors.is_empty());
    let res = engine.try_query(q, 5).unwrap();
    assert_eq!(res.neighbors.len(), 1);
    // Query exactly at the object's location: distance ~ 0.
    let at_obj = scene.object(0).point;
    let res = engine.try_query(at_obj, 1).unwrap();
    assert!(res.neighbors[0].range.ub < 1e-6);
}

#[test]
fn prelude_quickstart_workflow() {
    let mesh = TerrainConfig::bh().with_grid(33).build_mesh(42);
    let scene = SceneBuilder::new(&mesh).object_count(20).seed(7).build();
    let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
    let result = engine.try_query(scene.random_query(1), 3).unwrap();
    assert_eq!(result.neighbors.len(), 3);
    for w in result.neighbors.windows(2) {
        assert!(w[0].range.ub <= w[1].range.ub + 1e-9);
    }
}
