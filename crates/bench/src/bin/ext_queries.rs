//! Extension-query benchmarks (DESIGN.md §3, beyond the paper's figures):
//! cost of the §6 query types built on the same multiresolution framework —
//! surface range queries (radius sweep), closest-pair, and
//! obstacle-constrained k-NN (slope-limit sweep).
//!
//! Output: `query,param,total_seconds,cpu_seconds,pages,result_size`.

use sknn_bench::{bh_mesh, mean, queries, scene_with_density, start_figure, Args};
use sknn_core::config::Mr3Config;
use sknn_core::constrained::{ConstrainedEngine, ObstacleMask};
use sknn_core::mr3::Mr3Engine;
use std::time::Duration;

fn main() {
    let args = Args::parse();
    let grid: usize = args.get("grid", 65);
    let seed: u64 = args.get("seed", 23);
    let nq: usize = args.get("queries", 3);
    let disk = Duration::from_secs_f64(args.get("disk-ms", 0.4) / 1e3);

    let mesh = bh_mesh(grid, seed);
    let scene = scene_with_density(&mesh, 4.0, seed + 1);
    let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
    let qs = queries(&scene, nq, seed + 2);

    start_figure(
        "Extension queries: range / closest-pair / constrained k-NN",
        "query,param,total_seconds,cpu_seconds,pages,result_size",
    );

    // Range queries over a radius sweep.
    for radius in [50.0, 100.0, 200.0, 400.0] {
        let mut total = Vec::new();
        let mut cpu = Vec::new();
        let mut pages = Vec::new();
        let mut size = Vec::new();
        for &q in &qs {
            let r = engine.range_query(q, radius);
            total.push(r.stats.total_time(disk).as_secs_f64());
            cpu.push(r.stats.cpu.as_secs_f64());
            pages.push(r.stats.pages as f64);
            size.push(r.inside.len() as f64);
        }
        println!(
            "range,{radius},{:.4},{:.4},{:.0},{:.1}",
            mean(&total),
            mean(&cpu),
            mean(&pages),
            mean(&size)
        );
    }

    // Closest pair (one per scene; parameter is the object count).
    let cp = engine.closest_pair().unwrap();
    println!(
        "closest_pair,{},{:.4},{:.4},{},2",
        scene.num_objects(),
        cp.stats.total_time(disk).as_secs_f64(),
        cp.stats.cpu.as_secs_f64(),
        cp.stats.pages
    );

    // Constrained k-NN over a slope-limit sweep.
    for max_slope in [4.0, 3.0, 2.2, 1.8] {
        let mask = ObstacleMask::from_slope_limit(&mesh, max_slope);
        let frac = mask.blocked_fraction();
        let con = ConstrainedEngine::build(&mesh, &scene, mask);
        let mut total = Vec::new();
        let mut cpu = Vec::new();
        let mut pages = Vec::new();
        let mut size = Vec::new();
        for &q in &qs {
            let r = con.query(q, 10);
            total.push(r.stats.total_time(disk).as_secs_f64());
            cpu.push(r.stats.cpu.as_secs_f64());
            pages.push(r.stats.pages as f64);
            size.push(r.neighbors.len() as f64);
        }
        eprintln!("# slope {max_slope}: {:.1}% blocked", frac * 100.0);
        println!(
            "constrained_knn,{max_slope},{:.4},{:.4},{:.0},{:.1}",
            mean(&total),
            mean(&cpu),
            mean(&pages),
            mean(&size)
        );
    }
}
