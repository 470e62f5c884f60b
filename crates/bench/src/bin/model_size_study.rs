//! Model-size scalability study (supporting the paper's central claim):
//! MR3's advantage over full-resolution processing *grows* with terrain
//! size, because EA pays per candidate a cost proportional to the model
//! while MR3 touches just-enough data at just-enough resolution.
//!
//! Output: `vertices,algo,total_seconds,cpu_seconds,pages,build_seconds`.

use sknn_bench::{bh_mesh, mean, queries, scene_with_density, start_figure, time_it, Args};
use sknn_core::config::Mr3Config;
use sknn_core::ea::EaEngine;
use sknn_core::mr3::Mr3Engine;
use std::time::Duration;

fn main() {
    let args = Args::parse();
    let max_grid: usize = args.get("grid", 129);
    let seed: u64 = args.get("seed", 5);
    let nq: usize = args.get("queries", 2);
    let k: usize = args.get("k", 10);
    let disk = Duration::from_secs_f64(args.get("disk-ms", 0.4) / 1e3);

    start_figure(
        "Model-size scalability: MR3 vs EA",
        "vertices,algo,total_seconds,cpu_seconds,pages,build_seconds",
    );
    let mut grid = 33;
    while grid <= max_grid {
        let mesh = bh_mesh(grid, seed);
        let scene = scene_with_density(&mesh, 4.0, seed + 1);
        let qs = queries(&scene, nq, seed + 2);
        let (mr3, t_mr3_build) = time_it(|| Mr3Engine::build(&mesh, &scene, &Mr3Config::default()));
        let (ea, t_ea_build) = time_it(|| EaEngine::build(&mesh, &scene));
        type Runner<'a> =
            Box<dyn Fn(sknn_core::workload::SurfacePoint) -> sknn_core::metrics::QueryResult + 'a>;
        let runners: Vec<(&str, Runner, f64)> = vec![
            (
                "MR3 s=1",
                Box::new(|q| mr3.try_query(q, k).expect("sknn query failed")),
                t_mr3_build.as_secs_f64(),
            ),
            ("EA", Box::new(|q| ea.query(q, k)), t_ea_build.as_secs_f64()),
        ];
        for (name, run, build) in runners {
            let mut total = Vec::new();
            let mut cpu = Vec::new();
            let mut pages = Vec::new();
            for &q in &qs {
                let r = run(q);
                total.push(r.stats.total_time(disk).as_secs_f64());
                cpu.push(r.stats.cpu.as_secs_f64());
                pages.push(r.stats.pages as f64);
            }
            println!(
                "{},{name},{:.4},{:.4},{:.0},{:.3}",
                mesh.num_vertices(),
                mean(&total),
                mean(&cpu),
                mean(&pages),
                build
            );
        }
        grid = (grid - 1) * 2 + 1;
    }
}
