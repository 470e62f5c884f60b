//! Overload study: what admission buys past saturation (ROADMAP item 9).
//!
//! One in-process [`Server`] over a warm engine, driven by
//! `serve::loadgen`. First two closed loops measure the unloaded p50
//! `L` (one connection) and the capacity `C` (eight connections); then
//! the open loop offers ρ·C for 3 s at each ρ ∈ {0.5, 1, 1.5, 2, 3}
//! under two deadline mixes (50 objects, k = 5):
//!
//! * `uniform` — one pass, every request with deadline 4L;
//! * `mixed` — two concurrent passes at ρ·C/2 each, deadlines 2L and 8L
//!   (the only mix in which earliest-deadline-first order differs from
//!   arrival order).
//!
//! Output: `mix,rho,offered_qps,goodput_qps,ok,degraded,late,shed,expired,wasted_ms_per_s,p99_ms`.
//! Goodput counts responses that reached the client by their deadline
//! (degraded ones included, and also counted in `degraded`); `late` are
//! responses that arrived after it, and `wasted_ms_per_s` is the engine
//! time (`ServerTiming.exec_us`) they cost per second of the point;
//! `expired` were answered `DeadlineExpired` at dequeue; `p99_ms` is the
//! round trip of admitted requests (responses and expiries; for `mixed`
//! the larger of the two passes' p99s, an upper bound on the union's).
//!
//! `--check true` runs one point, `uniform` at 2·C, and exits non-zero
//! unless every request is answered exactly once (no missing reply, no
//! protocol error, ok + shed + expired = sent) and on-time goodput is at
//! least C/2 — goodput does not collapse past saturation.
//!
//! ```text
//! --grid N      terrain grid points per side (default 33)
//! --seed N      master seed (default 1)
//! --check true  the CI point only
//! ```

use sknn_bench::{bh_mesh, start_figure, Args};
use sknn_core::config::Mr3Config;
use sknn_core::mr3::Mr3Engine;
use sknn_core::workload::{Scene, SceneBuilder};
use sknn_serve::loadgen::{self, LoadgenConfig, RunReport};
use sknn_serve::{ServeConfig, Server};
use std::time::Instant;

/// Neighbours per query.
const K: u32 = 5;
/// Objects in the scene.
const OBJECTS: usize = 50;
/// Open-loop duration of one point, seconds.
const SECONDS: f64 = 3.0;
/// Open-loop connections per point, split evenly between a mix's passes.
const OPEN_CONNS: usize = 4;

/// One offered-load point: the passes that ran side by side and how
/// long they took together.
struct Point {
    offered: f64,
    wall_s: f64,
    passes: Vec<RunReport>,
}

impl Point {
    fn sum(&self, f: impl Fn(&RunReport) -> u64) -> u64 {
        self.passes.iter().map(f).sum()
    }

    fn goodput(&self) -> f64 {
        (self.sum(|r| r.ok) - self.sum(|r| r.late)) as f64 / self.wall_s
    }

    /// Every request answered exactly once, and with one of the three
    /// answers admission can give (fault injection is off).
    fn conserved(&self) -> bool {
        self.sum(|r| r.missing + r.protocol_errors) == 0
            && self.sum(|r| r.ok + r.overloaded + r.expired) == self.sum(|r| r.sent)
    }

    fn row(&self, mix: &str, rho: f64) -> String {
        let wasted: f64 = self.passes.iter().map(|r| r.late_exec_ms).sum();
        let p99 = self.passes.iter().map(|r| r.latency.p99).fold(0.0, f64::max);
        format!(
            "{mix},{rho},{:.1},{:.1},{},{},{},{},{},{:.1},{:.2}",
            self.offered,
            self.goodput(),
            self.sum(|r| r.ok),
            self.sum(|r| r.degraded),
            self.sum(|r| r.late),
            self.sum(|r| r.overloaded),
            self.sum(|r| r.expired),
            wasted / self.wall_s,
            p99,
        )
    }
}

/// Runs `(qps, deadline_ms, seed)` passes concurrently for [`SECONDS`],
/// splitting [`OPEN_CONNS`] connections between them.
fn open_point(scene: &Scene<'_>, addr: &str, passes: &[(f64, u32, u64)]) -> Point {
    let connections = OPEN_CONNS / passes.len();
    let start = Instant::now();
    let reports = std::thread::scope(|s| {
        let runs: Vec<_> = passes
            .iter()
            .map(|&(qps, deadline_ms, seed)| {
                let requests_per_conn = (qps * SECONDS / connections as f64).ceil() as usize;
                let cfg = LoadgenConfig {
                    addr: addr.to_string(),
                    connections,
                    requests_per_conn,
                    qps,
                    k: K,
                    deadline_ms,
                    seed,
                };
                s.spawn(move || loadgen::run(scene, &cfg, None).expect("open-loop pass"))
            })
            .collect();
        runs.into_iter().map(|h| h.join().expect("loadgen pass panicked")).collect()
    });
    let offered = passes.iter().map(|p| p.0).sum();
    Point { offered, wall_s: start.elapsed().as_secs_f64(), passes: reports }
}

fn main() {
    let args = Args::parse();
    let grid: usize = args.get("grid", 33);
    let seed: u64 = args.get("seed", 1);
    let check: bool = args.get("check", false);

    let mesh = bh_mesh(grid, seed);
    let scene = SceneBuilder::new(&mesh).object_count(OBJECTS).seed(seed ^ 1).build();
    let mut engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
    engine.cold_cache = false;
    let serve_cfg = ServeConfig::default();
    let (workers, depth) = (serve_cfg.exec_threads, serve_cfg.queue_depth);
    let server = Server::bind(&engine, "127.0.0.1:0", serve_cfg).expect("bind server");
    let addr = server.local_addr().to_string();
    let handle = server.handle();

    let passed = std::thread::scope(|s| {
        s.spawn(|| server.run());
        let closed = |connections, requests_per_conn, seed| {
            let cfg = LoadgenConfig {
                addr: addr.clone(),
                connections,
                requests_per_conn,
                qps: 0.0,
                k: K,
                deadline_ms: 0,
                seed,
            };
            loadgen::run(&scene, &cfg, None).expect("closed-loop pass")
        };
        closed(8, 25, seed ^ 0xA); // warm the cut caches
        let l_ms = closed(1, 200, seed ^ 0xB).latency.p50;
        let c_conns = 8;
        let per_conn = ((SECONDS * workers as f64 * 1e3 / l_ms) / c_conns as f64).ceil() as usize;
        let c = closed(c_conns, per_conn.max(10), seed ^ 0xC).achieved_qps;
        let deadline = |mult: f64| (mult * l_ms).ceil() as u32;
        eprintln!(
            "# C = {c:.1} qps (closed loop, {c_conns} connections), L = {l_ms:.3} ms; \
             {workers} workers, queue depth {depth}, grid {grid}, {OBJECTS} objects; \
             deadlines: uniform {} ms, mixed {}/{} ms",
            deadline(4.0),
            deadline(2.0),
            deadline(8.0)
        );
        start_figure(
            "Overload: goodput, shedding and expiry from 0.5x to 3x capacity",
            "mix,rho,offered_qps,goodput_qps,ok,degraded,late,shed,expired,wasted_ms_per_s,p99_ms",
        );
        let mut passed = true;
        for mix in ["uniform", "mixed"] {
            for rho in [0.5, 1.0, 1.5, 2.0, 3.0] {
                if check && (mix != "uniform" || rho != 2.0) {
                    continue;
                }
                let offered = rho * c;
                let passes = match mix {
                    "uniform" => vec![(offered, deadline(4.0), seed ^ 0xD)],
                    _ => vec![
                        (offered / 2.0, deadline(2.0), seed ^ 0xE),
                        (offered / 2.0, deadline(8.0), seed ^ 0xF),
                    ],
                };
                let point = open_point(&scene, &addr, &passes);
                println!("{}", point.row(mix, rho));
                if check {
                    if !point.conserved() {
                        eprintln!("# FAIL: a request went unanswered or was answered twice");
                        passed = false;
                    }
                    if point.goodput() < 0.5 * c {
                        eprintln!(
                            "# FAIL: on-time goodput {:.1} qps at 2x is below C/2 = {:.1}",
                            point.goodput(),
                            0.5 * c
                        );
                        passed = false;
                    }
                }
            }
        }
        handle.shutdown();
        passed
    });
    if !passed {
        std::process::exit(1);
    }
}
