//! Every combination of MR3's optimisation switches must preserve answer
//! quality — the flags trade cost, never correctness.

use surface_knn::core::ch::ChEngine;
use surface_knn::core::config::{Mr3Config, StepSchedule};
use surface_knn::core::mr3::Mr3Engine;
use surface_knn::core::workload::SceneBuilder;
use surface_knn::multires::{build_dmtm, CutGrid, UnitStore};
use surface_knn::prelude::*;
use surface_knn::store::{PageId, Pager, StructureTag};

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

/// FNV-1a over an answer's radius and every neighbour's id and bound
/// bits.
fn answer_digest(r: &surface_knn::core::QueryResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(r.radius.to_bits());
    for n in &r.neighbors {
        eat(u64::from(n.id));
        eat(n.range.lb.to_bits());
        eat(n.range.ub.to_bits());
    }
    h
}

/// A custom schedule stores the DMTM units of its own steps and nothing
/// else — s=3's three fractions are two steps (200 % clamps to the 100 %
/// step 0), the jump's one — and answers with the bits the Morton
/// B+-tree layout gave (digests pinned from that layout).
#[test]
fn custom_schedules_store_only_their_own_steps() {
    let mesh = TerrainConfig::ep().with_grid(17).build_mesh(31);
    let scene = SceneBuilder::new(&mesh).object_count(15).seed(4).build();
    let tree = build_dmtm(&mesh);
    let jump = StepSchedule { dmtm: vec![2.0], msdn: vec![4], name: "jump" };
    let pinned = [0x59084613d6a7f605u64, 0x9e91449054512fa2, 0xaa0c545facdbdc2d];
    let unit_pages = |steps: &[u32], cfg: &Mr3Config| {
        let pager = Pager::new(16);
        let grid = CutGrid::new(mesh.extent(), cfg.cut_cache.tiles, cfg.cut_cache.pad_tiles);
        UnitStore::build(&pager, &tree, grid, steps);
        pager.num_pages()
    };
    for (sched, distinct) in [(StepSchedule::s3(), 2), (jump, 1)] {
        let cfg = Mr3Config::default().with_schedule(sched.clone());
        let engine = Mr3Engine::build(&mesh, &scene, &cfg);
        let mut steps: Vec<u32> =
            sched.dmtm.iter().map(|&frac| tree.step_for_fraction(frac)).collect();
        steps.sort_unstable();
        steps.dedup();
        assert_eq!(steps.len(), distinct, "{}: {steps:?}", sched.name);
        let pager = engine.pager();
        let dmtm_pages = (0..pager.num_pages() as u64)
            .filter(|&p| pager.tag_of(PageId(p)) == StructureTag::Dmtm)
            .count();
        assert_eq!(dmtm_pages, unit_pages(&steps, &cfg), "{}: DMTM pages", sched.name);
        let s1_steps: Vec<u32> =
            StepSchedule::s1().dmtm.iter().map(|&frac| tree.step_for_fraction(frac)).collect();
        assert!(dmtm_pages < unit_pages(&s1_steps, &cfg), "{} stored s=1's steps", sched.name);
        for (q, want) in (1..4u64).zip(pinned) {
            let res = engine.try_query(scene.random_query(q), 3).unwrap();
            assert_eq!(answer_digest(&res), want, "{} query {q}", sched.name);
        }
    }
}
