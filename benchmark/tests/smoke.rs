//! Runs every workload at `--smoke` scale through the real binary and
//! checks the result line against `BENCHMARK.json`: every metric the file
//! names is printed exactly once per workload, with its unit, and nothing
//! else is. Run with `cargo test --release`: the binary refuses to measure
//! a debug build, and a debug test run checks exactly that refusal.

#[path = "../src/json.rs"]
mod json;

use json::Json;
use std::path::Path;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_sknn-benchmark");
const WORKLOADS: [&str; 5] =
    ["cold_io", "warm_cpu", "serve_pipelined", "shard_straddle", "write_mix"];

fn run(workload: &str, trace: &str, out_dir: &Path) -> std::process::Output {
    Command::new(EXE)
        .args([
            "--smoke",
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .env("SKNN_BENCH_OUT", out_dir)
        .output()
        .expect("benchmark binary runs")
}

#[test]
fn smoke_run_prints_every_metric_of_benchmark_json_once() {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    if cfg!(debug_assertions) {
        let out = run("warm_cpu", "0", &out_dir);
        assert!(!out.status.success(), "a debug build must refuse to measure");
        assert!(String::from_utf8_lossy(&out.stderr).contains("debug build"));
        return;
    }

    let def = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let declared: Vec<&str> = def
        .get("workloads")
        .unwrap()
        .items()
        .iter()
        .map(|w| w.get("name").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(declared, WORKLOADS);
    let section = |name: &str| -> Vec<(String, String)> {
        def.get(name)
            .unwrap()
            .items()
            .iter()
            .map(|m| {
                let f = |k: &str| m.get(k).unwrap().as_str().unwrap().to_string();
                (f("name"), f("unit"))
            })
            .collect()
    };

    for workload in WORKLOADS {
        for (trace, want) in [("0", section("end_to_end")), ("1", section("per_layer"))] {
            let out = run(workload, trace, &out_dir);
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed: {line}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let result = Json::parse(line).expect("the last stdout line is the result object");
            let Json::Obj(fields) = &result else { panic!("result is not an object") };
            assert_eq!(
                fields.keys().map(String::as_str).collect::<Vec<_>>(),
                ["attempted", "correct", "failed", "metrics"]
            );
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);

            let Some(Json::Obj(metrics)) = result.get("metrics") else { panic!("no metrics") };
            assert_eq!(metrics.len(), want.len(), "{workload} --trace {trace}: metric count");
            for (name, unit) in &want {
                let key = format!("\"{name}\":");
                assert_eq!(line.matches(&key).count(), 1, "{workload}: {name} printed once");
                let m = &metrics[name];
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()), "{name}");
                let value = m.get("value").and_then(Json::as_f64).expect("numeric value");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                if trace == "0" {
                    assert!(value > 0.0, "{workload}: end-to-end {name} must never read 0");
                }
            }
            if trace == "1" {
                let log = out_dir.join(format!("trace-{workload}.jsonl"));
                let text = std::fs::read_to_string(&log).expect("traced run writes its span log");
                assert!(text.lines().count() > 0);
                for l in text.lines() {
                    Json::parse(l).expect("span log lines are JSON");
                }
            }
        }
    }
}
