//! Figure 10 — "Effect of k" (panels a–c: BH; d–f: EP).
//!
//! Total response time, CPU time and pages accessed for MR3 with step
//! schedules s=1/2/3 and for the EA benchmark, as k grows from 3 to 30 at
//! object density o = 4. Expected shape (paper): EA is roughly an order
//! of magnitude slower and grows steeply ("practically not useable when
//! k >= 9"); s=1 has the best time overall despite the most page
//! accesses; s=3 behaves most like single-step filter-and-refine; the BH
//! (rugged) panels cost more than EP (mild).
//!
//! Output: `terrain,algo,k,total_seconds,cpu_seconds,pages`; each cell's
//! CPU time is the median of [`CELL_RUNS`](sknn_bench::CELL_RUNS) runs.

use sknn_bench::{
    bh_mesh, cell, ep_mesh, queries, scene_with_density, start_figure, Args, TraceSink,
};
use sknn_core::config::{Mr3Config, StepSchedule};
use sknn_core::ea::EaEngine;
use sknn_core::mr3::Mr3Engine;
use std::time::Duration;

fn main() {
    let args = Args::parse();
    let grid: usize = args.get("grid", 65);
    let seed: u64 = args.get("seed", 5);
    let nq: usize = args.get("queries", 2);
    let density: f64 = args.get("density", 4.0);
    let kmax: usize = args.get("kmax", 30);
    // Per-page read latency. The paper's balance (CPU cost dominating
    // I/O, §5.5) arose from 2002-era CPUs against 2002-era disks; modern
    // CPUs are ~20x faster, so the default scales the disk down by the
    // same factor to preserve the regime. Use --disk-ms 8 for the raw
    // 2002 disk.
    let disk = Duration::from_secs_f64(args.get("disk-ms", 0.4) / 1e3);
    let mut sink = TraceSink::from_args(&args);

    start_figure(
        "Fig 10: effect of k (o=4) on BH and EP",
        "terrain,algo,k,total_seconds,cpu_seconds,pages",
    );

    for (terrain, mesh) in [("BH", bh_mesh(grid, seed)), ("EP", ep_mesh(grid, seed))] {
        let scene = scene_with_density(&mesh, density, seed + 1);
        eprintln!("# {terrain}: {} vertices, {} objects", mesh.num_vertices(), scene.num_objects());
        let engines: Vec<(String, Mr3Engine)> =
            [StepSchedule::s1(), StepSchedule::s2(), StepSchedule::s3()]
                .into_iter()
                .map(|s| {
                    let name = format!("MR3 {}", s.name);
                    let mut engine =
                        Mr3Engine::build(&mesh, &scene, &Mr3Config::default().with_schedule(s));
                    if let Some(sink) = &sink {
                        sink.attach(&mut engine);
                    }
                    (name, engine)
                })
                .collect();
        let ea = EaEngine::build(&mesh, &scene);
        let qs = queries(&scene, nq, seed + 2);

        for k in (3..=kmax).step_by(3) {
            for (name, engine) in &engines {
                let (total, cpu, pages) = cell(&qs, disk, |run, q| {
                    let r = engine.try_query(q, k).expect("sknn query failed");
                    if let (0, Some(sink), Some(trace)) = (run, sink.as_mut(), r.trace.as_ref()) {
                        sink.record(trace);
                    }
                    r.stats
                });
                println!("{terrain},{name},{k},{total:.4},{cpu:.4},{pages:.0}");
            }
            let (total, cpu, pages) = cell(&qs, disk, |_, q| ea.query(q, k).stats);
            println!("{terrain},EA,{k},{total:.4},{cpu:.4},{pages:.0}");
        }
    }
}
