//! Figure 11 — "Effect of object density" (panels a–c: BH; d–f: EP).
//!
//! Total response time, CPU time and pages accessed at k = 10 as the
//! object density o grows from 1 to 10 per km². Expected shape (paper):
//! costs fall as density rises (denser objects → smaller candidate
//! region); EA rises steeply as density falls; s=2 edges s=1 at high
//! densities where the search region is so small that I/O dominates.
//!
//! Output: `terrain,algo,density,total_seconds,cpu_seconds,pages`.

use sknn_bench::{bh_mesh, ep_mesh, mean, queries, scene_with_density, start_figure, Args};
use sknn_core::config::{Mr3Config, StepSchedule};
use sknn_core::ea::EaEngine;
use sknn_core::mr3::Mr3Engine;
use std::time::Duration;

fn main() {
    let args = Args::parse();
    let grid: usize = args.get("grid", 65);
    let seed: u64 = args.get("seed", 9);
    let nq: usize = args.get("queries", 2);
    let k: usize = args.get("k", 10);
    // Per-page read latency. The paper's balance (CPU cost dominating
    // I/O, §5.5) arose from 2002-era CPUs against 2002-era disks; modern
    // CPUs are ~20x faster, so the default scales the disk down by the
    // same factor to preserve the regime. Use --disk-ms 8 for the raw
    // 2002 disk.
    let disk = Duration::from_secs_f64(args.get("disk-ms", 0.4) / 1e3);

    // The paper's densities are 1..10 per km² on a 150 km² map. Scaled
    // grids cover less area, so we express density in objects per km² but
    // guarantee a workable minimum object count per scene; the *relative*
    // density sweep is what the figure is about.
    let densities: Vec<f64> = (1..=10).map(|d| d as f64).collect();

    start_figure(
        "Fig 11: effect of object density (k=10) on BH and EP",
        "terrain,algo,density,total_seconds,cpu_seconds,pages",
    );

    for (terrain, mesh) in [("BH", bh_mesh(grid, seed)), ("EP", ep_mesh(grid, seed))] {
        for &o in &densities {
            // Scale density so the smallest setting still has > k objects:
            // the paper's absolute map is far larger than our scaled one.
            let per_km2 = o * 64.0;
            let scene = scene_with_density(&mesh, per_km2, seed + o as u64);
            let qs = queries(&scene, nq, seed + 100);
            eprintln!("# {terrain} o={o}: {} objects", scene.num_objects());
            for sched in [StepSchedule::s1(), StepSchedule::s2(), StepSchedule::s3()] {
                let name = format!("MR3 {}", sched.name);
                let engine =
                    Mr3Engine::build(&mesh, &scene, &Mr3Config::default().with_schedule(sched));
                let mut total = Vec::new();
                let mut cpu = Vec::new();
                let mut pages = Vec::new();
                for &q in &qs {
                    let r = engine.try_query(q, k).expect("sknn query failed");
                    total.push(r.stats.total_time(disk).as_secs_f64());
                    cpu.push(r.stats.cpu.as_secs_f64());
                    pages.push(r.stats.pages as f64);
                }
                println!(
                    "{terrain},{name},{o},{:.4},{:.4},{:.0}",
                    mean(&total),
                    mean(&cpu),
                    mean(&pages)
                );
            }
            let ea = EaEngine::build(&mesh, &scene);
            let mut total = Vec::new();
            let mut cpu = Vec::new();
            let mut pages = Vec::new();
            for &q in &qs {
                let r = ea.query(q, k);
                total.push(r.stats.total_time(disk).as_secs_f64());
                cpu.push(r.stats.cpu.as_secs_f64());
                pages.push(r.stats.pages as f64);
            }
            println!("{terrain},EA,{o},{:.4},{:.4},{:.0}", mean(&total), mean(&cpu), mean(&pages));
        }
    }
}
