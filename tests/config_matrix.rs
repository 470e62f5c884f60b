//! Every combination of MR3's optimisation switches must preserve answer
//! quality — the flags trade cost, never correctness.

use surface_knn::core::ch::ChEngine;
use surface_knn::core::config::{Mr3Config, StepSchedule};
use surface_knn::core::mr3::Mr3Engine;
use surface_knn::core::workload::SceneBuilder;
use surface_knn::prelude::*;

#[test]
fn all_flag_combinations_preserve_quality() {
    let mesh = TerrainConfig::ep().with_grid(17).build_mesh(2024);
    let scene = SceneBuilder::new(&mesh).object_count(24).seed(8).build();
    let exact = ChEngine::new(&scene);
    let q = scene.random_query(5);
    let k = 4;
    let truth = exact.query(q, k);
    let kth = truth.neighbors.last().unwrap().range.ub;

    for bits in 0..16u32 {
        let cfg = Mr3Config {
            ellipse_prune: bits & 1 != 0,
            corridor_refinement: bits & 2 != 0,
            dummy_lower_bound: bits & 4 != 0,
            integrated_io: bits & 8 != 0,
            ..Mr3Config::default()
        };
        let engine = Mr3Engine::build(&mesh, &scene, &cfg);
        let res = engine.try_query(q, k).unwrap();
        assert_eq!(res.neighbors.len(), k, "combo {bits:04b}");
        for n in &res.neighbors {
            let d = exact.pair_distance(q, scene.object(n.id).point);
            assert!(
                d <= kth * 1.06 + 1e-6,
                "combo {bits:04b}: object {} at {d} vs kth {kth}",
                n.id
            );
            assert!(
                n.range.lb <= d + 1e-6 && d <= n.range.ub + 1e-6,
                "combo {bits:04b}: range [{}, {}] misses exact {d}",
                n.range.lb,
                n.range.ub
            );
        }
    }
}

#[test]
fn schedules_and_flags_interact_safely() {
    let mesh = TerrainConfig::bh().with_grid(17).build_mesh(606);
    let scene = SceneBuilder::new(&mesh).object_count(18).seed(3).build();
    let exact = ChEngine::new(&scene);
    let q = scene.random_query(2);
    let k = 3;
    let truth = exact.query(q, k);
    let kth = truth.neighbors.last().unwrap().range.ub;
    for sched in [StepSchedule::s1(), StepSchedule::s2(), StepSchedule::s3()] {
        for minimal in [false, true] {
            let name = sched.name;
            let mut cfg = Mr3Config::default().with_schedule(sched.clone());
            if minimal {
                cfg.ellipse_prune = false;
                cfg.corridor_refinement = false;
                cfg.dummy_lower_bound = false;
                cfg.integrated_io = false;
            }
            let engine = Mr3Engine::build(&mesh, &scene, &cfg);
            let res = engine.try_query(q, k).unwrap();
            for n in &res.neighbors {
                let d = exact.pair_distance(q, scene.object(n.id).point);
                assert!(d <= kth * 1.06 + 1e-6, "{name} minimal={minimal}: {d} vs {kth}");
            }
        }
    }
}

#[test]
fn custom_schedule_single_jump() {
    // A degenerate one-level schedule (straight to the pathnet) must still
    // answer correctly — it is the "no multiresolution at all" extreme.
    let mesh = TerrainConfig::ep().with_grid(17).build_mesh(31);
    let scene = SceneBuilder::new(&mesh).object_count(15).seed(4).build();
    let exact = ChEngine::new(&scene);
    let q = scene.random_query(1);
    let cfg = Mr3Config::default().with_schedule(StepSchedule {
        dmtm: vec![2.0],
        msdn: vec![4],
        name: "jump",
    });
    let engine = Mr3Engine::build(&mesh, &scene, &cfg);
    let res = engine.try_query(q, 3).unwrap();
    assert_eq!(res.neighbors.len(), 3);
    let truth = exact.query(q, 3);
    let kth = truth.neighbors.last().unwrap().range.ub;
    for n in &res.neighbors {
        let d = exact.pair_distance(q, scene.object(n.id).point);
        assert!(d <= kth * 1.06 + 1e-6);
    }
}
