//! The whole benchmark in one command: every workload in a fresh child
//! process of this binary (clean allocator, its own `VmHWM`), untraced
//! then traced, every metric printed by name with its unit — or, with
//! `--repeat N`, the run-to-run spread of each end-to-end metric against
//! the bound `BENCHMARK.json` gives it.

use crate::json::Json;
use crate::stats::{median, quartile_spread};
use crate::{Ctx, BENCHMARK_JSON, WORKLOADS};
use std::collections::BTreeMap;
use std::process::Command;
use surface_knn::serve::ServeConfig;
use surface_knn::shard::RouterConfig;

pub fn run_seconds() -> f64 {
    Json::parse(BENCHMARK_JSON)
        .ok()
        .and_then(|d| d.get("run_seconds").and_then(Json::as_f64))
        .expect("BENCHMARK.json has run_seconds")
}

/// Where a number came from: printed before every run's result.
pub fn print_environment(ctx: &Ctx, workload: &str) {
    let commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    println!(
        "environment workload={workload} seed={} seconds={} traced={} smoke={} nproc={} \
         clients={} commit={commit} profile=release grid={} objects={} write_objects={} k={} \
         cold_pool={} warm_pool={} serve_pool={} setup_builds={}",
        ctx.seed,
        ctx.seconds,
        ctx.traced,
        ctx.smoke,
        surface_knn::exec::available_threads(),
        ctx.clients,
        ctx.grid,
        ctx.objects,
        ctx.write_objects,
        ctx.k,
        ctx.cold_pool,
        ctx.warm_pool,
        ctx.serve_pool,
        crate::world::SETUP_BUILDS,
    );
    println!("environment mr3_config={:?}", surface_knn::prelude::Mr3Config::default());
    println!(
        "environment serve_config={:?}",
        ServeConfig { exec_threads: ctx.clients, ..ServeConfig::default() }
    );
    println!("environment router_config={:?}", RouterConfig::default());
}

/// One child run's result line, parsed.
struct Outcome {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, (f64, String)>,
}

fn child(ctx: &Ctx, workload: &str, seed: u64, traced: bool) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &ctx.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if ctx.smoke {
        cmd.arg("--smoke");
    }
    // stderr passes through; stdout is ours to parse.
    let out = cmd.stderr(std::process::Stdio::inherit()).output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or("no output")?;
    for l in lines.iter().filter(|l| !l.starts_with("environment") || !traced) {
        println!("{l}");
    }
    let v = Json::parse(last).map_err(|e| format!("result line: {e}"))?;
    let num = |k: &str| v.get(k).and_then(Json::as_f64).ok_or(format!("result line lacks {k}"));
    let Some(Json::Obj(m)) = v.get("metrics") else {
        return Err("result line lacks metrics".into());
    };
    let metrics = m
        .iter()
        .map(|(name, mv)| {
            let value = mv.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = mv.get("unit").and_then(Json::as_str).unwrap_or("").to_string();
            (name.clone(), (value, unit))
        })
        .collect();
    Ok(Outcome {
        correct: v.get("correct").and_then(Json::as_bool).unwrap_or(false) && out.status.success(),
        attempted: num("attempted")?,
        failed: num("failed")?,
        metrics,
    })
}

pub fn run(ctx: &Ctx, repeat: usize) -> ! {
    let ok = if repeat > 0 { spreads(ctx, repeat) } else { once(ctx) };
    std::process::exit(if ok { 0 } else { 1 });
}

fn once(ctx: &Ctx) -> bool {
    let mut ok = true;
    for traced in [false, true] {
        for w in WORKLOADS {
            match child(ctx, w, ctx.seed, traced) {
                Ok(o) => {
                    ok &= o.correct;
                    if !traced {
                        let fail_ratio = o.failed / o.attempted;
                        println!("{w:<16} {:<40} {fail_ratio:>14.6} ratio", "bench.fail_ratio");
                    }
                    for (name, (value, unit)) in &o.metrics {
                        println!("{w:<16} {name:<40} {value:>14.4} {unit}");
                    }
                }
                Err(e) => {
                    ok = false;
                    println!("{w:<16} FAILED: {e}");
                }
            }
        }
    }
    ok
}

/// `--repeat N`: N untraced runs per workload, each on another seed (the
/// acceptance check varies the seed too), then each end-to-end metric's
/// min / median / max and its quartile spread over its bound.
fn spreads(ctx: &Ctx, repeat: usize) -> bool {
    let def = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let bounds: BTreeMap<String, f64> = def
        .get("end_to_end")
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?.to_string(), m.get("bound")?.as_f64()?)))
        .collect();
    let mut ok = true;
    println!(
        "{:<16} {:<14} {:>12} {:>12} {:>12} {:>8} {:>8} {:>8}",
        "workload", "metric", "min", "median", "max", "spread", "bound", "ratio"
    );
    for w in WORKLOADS {
        let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for i in 0..repeat {
            match child(ctx, w, ctx.seed + i as u64, false) {
                Ok(o) => {
                    ok &= o.correct;
                    for (name, (value, _)) in o.metrics {
                        samples.entry(name).or_default().push(value);
                    }
                }
                Err(e) => {
                    ok = false;
                    println!("{w:<16} FAILED: {e}");
                }
            }
        }
        for (name, values) in &samples {
            let bound = bounds.get(name).copied().unwrap_or(f64::NAN);
            let spread = quartile_spread(values);
            let (min, max) =
                values.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            println!(
                "{w:<16} {name:<14} {min:>12.4} {:>12.4} {max:>12.4} {spread:>8.4} {bound:>8.2} {:>8.2}",
                median(values),
                spread / bound
            );
            // Set-up time is gated on its median only, not its spread.
            ok &= name == "setup_s" || spread <= bound;
        }
    }
    ok
}
