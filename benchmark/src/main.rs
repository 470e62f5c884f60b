//! The repo's one benchmark: five workloads, end-to-end metrics from an
//! untraced run, per-layer metrics and a span log from a traced run.
//! `BENCHMARK.json` at the repo root names every metric; `README.md` here
//! says what each workload is for.
//!
//! ```text
//! sknn-benchmark --workload W --seed N --seconds S --trace 0|1   one run, result on the last line
//! sknn-benchmark [--seed N] [--seconds S]                        every workload, untraced then traced
//! sknn-benchmark --repeat N                                      N untraced runs each, spread vs bound
//! ```

mod json;
mod library;
mod pace;
mod probes;
mod queries;
mod served;
mod stats;
mod suite;
mod trace;
mod world;
mod write_mix;

use json::Json;
use stats::Report;
use std::path::PathBuf;
use surface_knn::prelude::*;
use world::BuildTimes;

/// The benchmark's definition, compiled in so the program and the file
/// cannot name different metrics.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub const WORKLOADS: [&str; 5] =
    ["cold_io", "warm_cpu", "serve_pipelined", "shard_straddle", "write_mix"];

/// Everything one run is parameterised by. The traffic is a function of
/// `seed`; the scale fields are constants of the benchmark (`--smoke`
/// shrinks them so a test can run every workload in seconds).
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    /// Client threads / connections, and the servers' `exec_threads`.
    pub clients: usize,
    pub grid: usize,
    pub k: usize,
    pub objects: usize,
    /// `write_mix` starts from a larger object set so deletes never drain it.
    pub write_objects: usize,
    /// Distinct queries per pool; a pool is cycled for as long as the
    /// window lasts. `cold_io` gets the smallest: its queries are the
    /// slowest and a window must still cover the pool more than once.
    pub cold_pool: usize,
    pub warm_pool: usize,
    pub serve_pool: usize,
    pub out_dir: PathBuf,
}

impl Ctx {
    fn new(seed: u64, seconds: f64, traced: bool, smoke: bool) -> Self {
        let full = Ctx {
            seed,
            seconds,
            traced,
            smoke,
            clients: surface_knn::exec::available_threads().min(4),
            grid: 129,
            k: 5,
            objects: 400,
            write_objects: 4000,
            cold_pool: 36,
            warm_pool: 96,
            serve_pool: 96,
            out_dir: PathBuf::from(
                std::env::var("SKNN_BENCH_OUT").unwrap_or("benchmark/out".into()),
            ),
        };
        if smoke {
            Ctx {
                grid: 33,
                objects: 64,
                write_objects: 200,
                cold_pool: 4,
                warm_pool: 12,
                serve_pool: 12,
                ..full
            }
        } else {
            full
        }
    }
}

pub fn report_build(rep: &mut Report, t: &BuildTimes) {
    rep.set("terrain.build_mesh_ms", t.mesh_ms);
    rep.set("multires.build_dmtm_ms", t.dmtm_ms);
    rep.set("sdn.build_msdn_ms", t.msdn_ms);
    rep.set("core.engine_build_ms", t.engine_ms);
}

/// Cumulative cut-cache counters summed over `engines`: evictions, hits,
/// misses.
pub fn cut_cache_counts(engines: &[&Mr3Engine<'_, '_>]) -> [u64; 3] {
    engines
        .iter()
        .filter_map(|e| e.cut_cache_snapshot())
        .fold([0; 3], |acc, s| [acc[0] + s.evictions, acc[1] + s.hits, acc[2] + s.misses])
}

/// Cut-cache rows that need the engines' cumulative snapshot: evictions
/// over the `queries` since `before` was taken, and what is resident now.
/// Returns the hit ratio over the same stretch, for callers that cannot
/// get it from `QueryStats`.
pub fn report_cut_cache(
    rep: &mut Report,
    engines: &[&Mr3Engine<'_, '_>],
    before: [u64; 3],
    queries: f64,
) -> f64 {
    let now = cut_cache_counts(engines);
    let [evictions, hits, misses] = [0, 1, 2].map(|i| (now[i] - before[i]) as f64);
    let resident: u64 =
        engines.iter().filter_map(|e| e.cut_cache_snapshot()).map(|s| s.resident_bytes).sum();
    rep.set("multires.cutcache_evictions_per_query", stats::ratio(evictions, queries));
    rep.set("multires.cutcache_resident_mb", resident as f64 / (1u64 << 20) as f64);
    stats::ratio(hits, hits + misses)
}

pub fn write_trace(ctx: &Ctx, workload: &str, tracer: &trace::Tracer) {
    let path = ctx.out_dir.join(format!("trace-{workload}.jsonl"));
    match tracer.write(&path) {
        Ok(()) => eprintln!("{workload}: wrote {}", path.display()),
        Err(e) => eprintln!("{workload}: cannot write {}: {e}", path.display()),
    }
}

struct MetricDef {
    name: String,
    unit: String,
}

fn metric_defs(section: &str) -> Vec<MetricDef> {
    let def = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).expect("name/unit").to_string();
    def.get(section)
        .expect("BENCHMARK.json section")
        .items()
        .iter()
        .map(|m| MetricDef { name: field(m, "name"), unit: field(m, "unit") })
        .collect()
}

/// The result line of the contract: exactly the metrics `BENCHMARK.json`
/// lists for this kind of run. A per-layer metric the workload never set
/// reads 0 — the workload does not enter that layer.
fn result_line(ctx: &Ctx, rep: &Report) -> (String, bool) {
    let defs = metric_defs(if ctx.traced { "per_layer" } else { "end_to_end" });
    for name in rep.values.keys() {
        assert!(defs.iter().any(|d| d.name == *name), "metric {name} is not in BENCHMARK.json");
    }
    let mut correct = rep.failed == 0 && rep.attempted > 0;
    let mut metrics = Vec::new();
    for d in &defs {
        let v = match rep.values.get(d.name.as_str()) {
            Some(&v) => v,
            None if ctx.traced => 0.0,
            None => panic!("end-to-end metric {} was not measured", d.name),
        };
        correct &= v.is_finite();
        let v = if v.is_finite() { v } else { 0.0 };
        metrics.push(format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.name, d.unit));
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.attempted.max(1),
        rep.failed,
        metrics.join(", ")
    );
    (line, correct)
}

fn run_workload(ctx: &Ctx, name: &str) -> ! {
    // A hung server or dead dispatcher must end as a failed run, not a hung
    // benchmark: client sockets time out on their own (see `served`), and
    // this backstop covers everything else.
    let budget = std::time::Duration::from_secs_f64(120.0 + 2.0 * ctx.seconds);
    std::thread::spawn(move || {
        std::thread::sleep(budget);
        eprintln!("watchdog: run exceeded {budget:?}; giving up");
        std::process::exit(3);
    });

    let mut rep = Report::default();
    match name {
        "cold_io" => library::run(ctx, true, &mut rep),
        "warm_cpu" => library::run(ctx, false, &mut rep),
        "serve_pipelined" => served::run(ctx, false, &mut rep),
        "shard_straddle" => served::run(ctx, true, &mut rep),
        "write_mix" => write_mix::run(ctx, &mut rep),
        other => {
            eprintln!("unknown workload {other}; one of {WORKLOADS:?}");
            std::process::exit(2);
        }
    }
    if ctx.traced {
        rep.set("bench.fail_ratio", rep.failed as f64 / rep.attempted.max(1) as f64);
    } else {
        rep.set("peak_rss_mb", stats::peak_rss_mb());
    }
    let (line, correct) = result_line(ctx, &rep);
    println!("{line}");
    std::process::exit(if correct { 0 } else { 1 });
}

/// `--flag value` pairs and bare `--flag`s.
struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == flag)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        match self.value(flag) {
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("bad value for {flag}: {v}");
                std::process::exit(2);
            }),
            None => default,
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn main() {
    let args = Args(std::env::args().skip(1).collect());
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build; build with --release");
        std::process::exit(2);
    }
    let smoke = args.has("--smoke");
    let ctx = Ctx::new(
        args.parsed("--seed", 1),
        args.parsed("--seconds", if smoke { 1.0 } else { suite::run_seconds() }),
        args.parsed::<u8>("--trace", 0) != 0,
        smoke,
    );
    match args.value("--workload") {
        Some(name) => {
            suite::print_environment(&ctx, name);
            run_workload(&ctx, name)
        }
        None => suite::run(&ctx, args.parsed("--repeat", 0)),
    }
}
