//! Ablations of MR3's individual optimisations (beyond the paper's own
//! figures; DESIGN.md §3): ellipse search-region pruning (§4.2.1),
//! corridor-refined search regions (§4.2.1), the dummy lower bound
//! (§4.2.2), and integrated I/O regions (§4.2 / Fig. 9), each toggled off
//! against the full configuration.
//!
//! Output: `variant,total_seconds,cpu_seconds,pages,settled`.

use sknn_bench::{bh_mesh, mean, queries, scene_with_density, start_figure, Args};
use sknn_core::config::Mr3Config;
use sknn_core::mr3::Mr3Engine;
use std::time::Duration;

fn main() {
    let args = Args::parse();
    let grid: usize = args.get("grid", 65);
    let seed: u64 = args.get("seed", 17);
    let nq: usize = args.get("queries", 4);
    let k: usize = args.get("k", 10);
    // Per-page read latency. The paper's balance (CPU cost dominating
    // I/O, §5.5) arose from 2002-era CPUs against 2002-era disks; modern
    // CPUs are ~20x faster, so the default scales the disk down by the
    // same factor to preserve the regime. Use --disk-ms 8 for the raw
    // 2002 disk.
    let disk = Duration::from_secs_f64(args.get("disk-ms", 0.4) / 1e3);

    let mesh = bh_mesh(grid, seed);
    let scene = scene_with_density(&mesh, 4.0, seed + 1);
    let qs = queries(&scene, nq, seed + 2);

    let variants: Vec<(&str, Mr3Config)> = vec![
        ("full", Mr3Config::default()),
        ("no-ellipse", Mr3Config { ellipse_prune: false, ..Mr3Config::default() }),
        ("no-corridor", Mr3Config { corridor_refinement: false, ..Mr3Config::default() }),
        ("no-dummy-lb", Mr3Config { dummy_lower_bound: false, ..Mr3Config::default() }),
        ("no-integrated-io", Mr3Config { integrated_io: false, ..Mr3Config::default() }),
        (
            "none",
            Mr3Config {
                ellipse_prune: false,
                corridor_refinement: false,
                dummy_lower_bound: false,
                integrated_io: false,
                ..Mr3Config::default()
            },
        ),
    ];

    start_figure(
        "Ablations of MR3 optimisations (BH, k=10, o=4)",
        "variant,total_seconds,cpu_seconds,pages,settled",
    );
    for (name, cfg) in variants {
        let engine = Mr3Engine::build(&mesh, &scene, &cfg);
        let mut total = Vec::new();
        let mut cpu = Vec::new();
        let mut pages = Vec::new();
        let mut settled = Vec::new();
        for &q in &qs {
            let r = engine.try_query(q, k).expect("sknn query failed");
            total.push(r.stats.total_time(disk).as_secs_f64());
            cpu.push(r.stats.cpu.as_secs_f64());
            pages.push(r.stats.pages as f64);
            settled.push(r.stats.settled as f64);
        }
        println!(
            "{name},{:.4},{:.4},{:.0},{:.0}",
            mean(&total),
            mean(&cpu),
            mean(&pages),
            mean(&settled)
        );
    }
}
