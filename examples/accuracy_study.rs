//! Distance-range convergence — a walkthrough of the idea behind Fig. 8.
//!
//! For one pair of surface points, print the `[lb, ub]` range estimated at
//! every (DMTM, MSDN) resolution pair of the s=1 schedule, next to the
//! exact surface distance. Watch the range close in on the truth without
//! the query processor ever computing the exact distance itself.
//!
//! ```sh
//! cargo run --release --example accuracy_study
//! ```

use surface_knn::core::config::Mr3Config;
use surface_knn::core::metrics::QueryStats;
use surface_knn::core::ranking::{RankScratch, RankingContext};
use surface_knn::geodesic::ExactGeodesic;
use surface_knn::multires::{build_dmtm, PagedDmtm};
use surface_knn::prelude::*;
use surface_knn::sdn::{Msdn, MsdnConfig, PagedMsdn};
use surface_knn::store::Pager;

fn main() {
    let mesh = TerrainConfig::bh().with_grid(33).build_mesh(88);
    let scene = SceneBuilder::new(&mesh).object_count(2).seed(1).build();
    let a = scene.random_query(5);
    let b = scene.random_query(17);

    let cfg = Mr3Config::default();
    let pager = Pager::new(cfg.pool_pages);
    let dmtm = PagedDmtm::build(&pager, build_dmtm(&mesh));
    let msdn_cfg = MsdnConfig { levels: cfg.msdn_levels.clone(), plane_spacing: None };
    let msdn = PagedMsdn::build(&pager, &Msdn::build(&mesh, &msdn_cfg));
    let grid = surface_knn::multires::CutGrid::new(
        mesh.extent(),
        cfg.cut_cache.tiles,
        cfg.cut_cache.pad_tiles,
    );
    let cuts = surface_knn::multires::CutCache::new(cfg.cut_cache.capacity_bytes, grid);
    let lines = surface_knn::sdn::LineCutCache::new(cfg.cut_cache.capacity_bytes);
    let ctx = RankingContext {
        mesh: &mesh,
        locator: scene.locator(),
        dmtm: &dmtm,
        msdn: &msdn,
        pager: &pager,
        cfg: &cfg,
        rec: &sknn_obs::NOOP,
        query: 0,
        scratch: std::cell::RefCell::new(RankScratch::default()),
        cuts: &cuts,
        lines: &lines,
        grid,
        faults: sknn_core::FaultLog::new(cfg.fault_budget),
        deadline: None,
        deadline_hit: std::cell::Cell::new(false),
        pool: None,
    };

    let exact = ExactGeodesic::new(&mesh).distance(a.to_mesh_point(), b.to_mesh_point());
    let euclid = a.pos.dist(b.pos);
    println!("pair: euclidean {euclid:.2} m, exact surface distance {exact:.2} m\n");
    println!("dmtm%   msdn%    lb(m)      ub(m)     eps=lb/ub   brackets-exact?");

    let dmtm_levels = [0.005, 0.25, 0.5, 0.75, 1.0, 2.0];
    let msdn_levels = [0.25, 0.375, 0.5, 0.75, 1.0, 1.0];
    for (i, (&df, &mf)) in dmtm_levels.iter().zip(&msdn_levels).enumerate() {
        let mut stats = QueryStats::default();
        let lvl = i.min(cfg.msdn_levels.len() - 1);
        let range = ctx.estimate_pair(&a, &b, df, lvl, &mut stats);
        let ok = range.lb <= exact + 1e-6 && exact <= range.ub + 1e-6;
        println!(
            "{:>5.1}  {:>5.1}  {:>9.2}  {:>9.2}   {:>8.3}     {}",
            df * 100.0,
            mf * 100.0,
            range.lb,
            range.ub,
            range.accuracy(),
            if ok { "yes" } else { "VIOLATED" }
        );
    }
    println!("\n(the Euclidean lower bound alone would cap accuracy at {:.3})", euclid / exact);
}
