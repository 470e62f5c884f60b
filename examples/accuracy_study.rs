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

use surface_knn::geodesic::ExactGeodesic;
use surface_knn::prelude::*;

fn main() {
    let mesh = TerrainConfig::bh().with_grid(33).build_mesh(88);
    let scene = SceneBuilder::new(&mesh).object_count(2).seed(1).build();
    let a = scene.random_query(5);
    let b = scene.random_query(17);

    let cfg = Mr3Config::default();
    let mut engine = Mr3Engine::build(&mesh, &scene, &cfg);
    engine.cold_cache = false;

    let exact = ExactGeodesic::new(&mesh).distance(a.to_mesh_point(), b.to_mesh_point());
    let euclid = a.pos.dist(b.pos);
    println!("pair: euclidean {euclid:.2} m, exact surface distance {exact:.2} m\n");
    println!("dmtm%   msdn%    lb(m)      ub(m)     eps=lb/ub   brackets-exact?");

    let msdn_levels = [0.25, 0.375, 0.5, 0.75, 1.0, 1.0];
    for (i, (&df, &mf)) in cfg.schedule.dmtm.iter().zip(&msdn_levels).enumerate() {
        let lvl = i.min(cfg.msdn_levels.len() - 1);
        let range = engine.estimate_pair(a, b, i, lvl);
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
