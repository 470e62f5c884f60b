//! Figure 9 — "Effect of integrated I/O region".
//!
//! Disk pages accessed as k grows from 3 to 30 (o = 4, schedule s = 2),
//! with the integrated-I/O-region option on vs off. The paper: with the
//! option on, page counts grow much more slowly, and the gap widens with
//! k (more candidates → more overlapping regions to merge).
//!
//! Output: `k,pages_integration_on,pages_integration_off`.

use sknn_bench::{bh_mesh, mean, queries, scene_with_density, start_figure, Args, TraceSink};
use sknn_core::config::{Mr3Config, StepSchedule};
use sknn_core::mr3::Mr3Engine;

fn main() {
    let args = Args::parse();
    let grid: usize = args.get("grid", 65);
    let seed: u64 = args.get("seed", 3);
    let nq: usize = args.get("queries", 3);
    let density: f64 = args.get("density", 4.0);
    // The paper's regime is "data far larger than the buffer cache": a
    // generous pool would absorb every re-fetch and hide the integration
    // effect entirely. Keep the pool small relative to the structures.
    let pool: usize = args.get("pool", 48);

    let mesh = bh_mesh(grid, seed);
    let scene = scene_with_density(&mesh, density, seed + 1);
    eprintln!("# mesh: {} vertices, {} objects", mesh.num_vertices(), scene.num_objects());
    let base =
        Mr3Config { pool_pages: pool, ..Mr3Config::default().with_schedule(StepSchedule::s2()) };
    let mut sink = TraceSink::from_args(&args);
    let mut on = Mr3Engine::build(&mesh, &scene, &base);
    let off_cfg = Mr3Config { integrated_io: false, ..base.clone() };
    let mut off = Mr3Engine::build(&mesh, &scene, &off_cfg);
    if let Some(sink) = &sink {
        sink.attach(&mut on);
        sink.attach(&mut off);
    }

    let qs = queries(&scene, nq, seed + 2);
    start_figure("Fig 9: integrated I/O region on vs off (pages accessed)", "k,pages_on,pages_off");
    let run = |engine: &Mr3Engine, k: usize, sink: &mut Option<TraceSink>| -> Vec<f64> {
        qs.iter()
            .map(|&q| {
                let r = engine.try_query(q, k).expect("sknn query failed");
                if let (Some(sink), Some(trace)) = (sink.as_mut(), r.trace.as_ref()) {
                    sink.record(trace);
                }
                r.stats.pages as f64
            })
            .collect()
    };
    for k in (3..=30).step_by(3) {
        let pages_on = run(&on, k, &mut sink);
        let pages_off = run(&off, k, &mut sink);
        println!("{k},{:.0},{:.0}", mean(&pages_on), mean(&pages_off));
    }
}
