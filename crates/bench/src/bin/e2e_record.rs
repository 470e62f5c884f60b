//! The benchmark's trajectory as a file: append one record to
//! `BENCH_e2e.json` from the stdout of alternating harness runs, or check
//! that every record in the file names its host.
//!
//! Record mode reads, on stdin, the stdout of each harness run with every
//! line prefixed by the side it ran on, `parent: ` or `change: `:
//!
//! ```text
//! for seed in 1 2 3; do
//!   (cd ../parent && bash benchmark/run.sh --workload write_mix --seed $seed \
//!       --seconds 10 --trace 0) | sed 's/^/parent: /'
//!   bash benchmark/run.sh --workload write_mix --seed $seed --seconds 10 \
//!       --trace 0 | sed 's/^/change: /'
//! done > pairs.txt
//! cargo run --release -p sknn-bench --bin e2e_record -- \
//!     --pr 31 --parent <hash> [--commit <hash>] [--file BENCH_e2e.json] < pairs.txt
//! ```
//!
//! Each run opens with the harness's `environment` lines (the first names
//! workload, seed, traced and nproc), may print `fingerprint` lines, and ends with its result
//! line. The record holds the host (`nproc` from the runs, CPU model and
//! `rustc` from the machine recording), and per workload the seeds, the
//! number of complete pairs, each side's median and exclusive-method
//! quartiles of the five end-to-end metrics over its untraced runs, and
//! every run's `correct`, `attempted`, `failed` and `ops_per_s`. The
//! fingerprints are the change side's answers at the lowest seed, with
//! whether the parent printed the same at every seed both sides ran.
//! A value a run did not print is `null`.
//!
//! `--check FILE` parses the file and exits non-zero unless it is one JSON
//! array whose every record (one per line) carries a host with its
//! `nproc`, and every record but the newest names its commit. A record is
//! written before its change is committed, so its `commit` may be `null`
//! until the next record is appended; record mode refuses to append while
//! the newest record's commit is still `null`.
//!
//! `--table FILE` prints the state table of ROADMAP.md from the file: per
//! workload, the change-side medians of the last record that ran it, with
//! that record's PR and host.

use sknn_bench::Args;
use std::collections::BTreeMap;
use std::io::Read;

/// The end-to-end metrics of `BENCHMARK.json`.
const METRICS: [&str; 5] = ["setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"];

/// One harness run, as its stdout lines describe it.
#[derive(Default)]
struct Run {
    side: String,
    workload: String,
    seed: u64,
    traced: bool,
    nproc: Option<u64>,
    correct: Option<bool>,
    attempted: Option<u64>,
    failed: Option<u64>,
    metrics: BTreeMap<&'static str, f64>,
    fingerprint: Option<String>,
}

fn main() {
    let args = Args::parse();
    if let Some(path) = args.get_opt::<String>("check") {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
        match check(&text).and_then(|n| commits_named(&text).map(|()| n)) {
            Ok(n) => eprintln!(
                "# {path}: {n} records, each with a host and all but the newest with a commit"
            ),
            Err(e) => fail(&format!("{path}: {e}")),
        }
        return;
    }
    if let Some(path) = args.get_opt::<String>("table") {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
        print!("{}", table(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}"))));
        return;
    }
    let pr: u64 = args.get_opt("pr").unwrap_or_else(|| fail("--pr N is required"));
    let parent: String = args.get_opt("parent").unwrap_or_else(|| fail("--parent is required"));
    let commit: Option<String> = args.get_opt("commit");
    let file: String = args.get("file", "BENCH_e2e.json".to_string());

    let mut input = String::new();
    std::io::stdin().read_to_string(&mut input).unwrap_or_else(|e| fail(&e.to_string()));
    let runs = parse_runs(&input);
    if runs.is_empty() {
        fail("no harness run on stdin (lines must start with `parent: ` or `change: `)");
    }
    let record = record(pr, commit.as_deref(), &parent, &runs);
    let old = std::fs::read_to_string(&file).unwrap_or_default();
    let new = append(&old, &record).unwrap_or_else(|e| fail(&format!("{file}: {e}")));
    if let Err(e) = check(&new).and_then(|_| commits_named(&new)) {
        fail(&format!("refusing to write an invalid file: {e}"));
    }
    std::fs::write(&file, new).unwrap_or_else(|e| fail(&format!("{file}: {e}")));
    eprintln!("# appended PR {pr} ({} runs) to {file}", runs.len());
}

fn fail(msg: &str) -> ! {
    eprintln!("e2e_record: {msg}");
    std::process::exit(1);
}

/// Split the side-prefixed stdout into runs, each opened by its
/// `environment` line.
fn parse_runs(input: &str) -> Vec<Run> {
    let mut runs: Vec<Run> = Vec::new();
    for line in input.lines() {
        let Some((side, rest)) = line.split_once(": ") else { continue };
        if side != "parent" && side != "change" {
            continue;
        }
        if let Some(env) = rest.strip_prefix("environment ") {
            let field = |key: &str| {
                env.split_whitespace().find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
            };
            // The first environment line of a run names its workload; the
            // ones after it print configs.
            if let Some(workload) = field("workload") {
                runs.push(Run {
                    side: side.to_string(),
                    workload: workload.to_string(),
                    seed: field("seed").and_then(|v| v.parse().ok()).unwrap_or(0),
                    traced: field("traced") == Some("true"),
                    nproc: field("nproc").and_then(|v| v.parse().ok()),
                    ..Run::default()
                });
            }
            continue;
        }
        let Some(run) = runs.last_mut().filter(|r| r.side == side) else { continue };
        if let Some(fp) = rest.strip_prefix("fingerprint ") {
            run.fingerprint = fp
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix("answers="))
                .map(str::to_string);
        } else if rest.starts_with('{') {
            run.correct = scalar(rest, "correct").and_then(|v| v.parse().ok());
            run.attempted = scalar(rest, "attempted").and_then(|v| v.parse().ok());
            run.failed = scalar(rest, "failed").and_then(|v| v.parse().ok());
            for m in METRICS {
                let value = rest
                    .split_once(&format!("\"{m}\": {{\"value\": "))
                    .and_then(|(_, tail)| number_prefix(tail));
                if let Some(v) = value {
                    run.metrics.insert(m, v);
                }
            }
        }
    }
    runs
}

/// The raw text of a top-level `"key": value` of the result line.
fn scalar<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let (_, tail) = line.split_once(&format!("\"{key}\": "))?;
    Some(tail.split([',', '}']).next()?.trim())
}

fn number_prefix(s: &str) -> Option<f64> {
    let end = s.find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c))).unwrap_or(s.len());
    s[..end].parse().ok()
}

/// The median as the harness computes it (linear between order
/// statistics).
fn median(s: &[f64]) -> f64 {
    let pos = 0.5 * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Exclusive-method quartile `i` (1 or 3) of a sorted sample of two or
/// more, as Python's `statistics.quantiles(values, n=4)`.
fn quartile(s: &[f64], i: usize) -> f64 {
    let n = s.len();
    let pos = (i * (n + 1)) as f64 / 4.0;
    let j = (pos.floor() as usize).clamp(1, n - 1);
    s[j - 1] + (s[j] - s[j - 1]) * (pos - j as f64)
}

fn num(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x}"),
        _ => "null".to_string(),
    }
}

fn opt<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map_or("null".to_string(), |x| x.to_string())
}

fn string(v: Option<&str>) -> String {
    v.map_or("null".to_string(), |s| {
        format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
    })
}

fn summary(runs: &[&Run], side: &str, metric: &str) -> String {
    let mut s: Vec<f64> = runs
        .iter()
        .filter(|r| r.side == side && !r.traced)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect();
    if s.is_empty() {
        return "null".to_string();
    }
    s.sort_by(f64::total_cmp);
    let (q1, q3) =
        if s.len() >= 2 { (Some(quartile(&s, 1)), Some(quartile(&s, 3))) } else { (None, None) };
    format!(
        "{{\"n\":{},\"median\":{},\"q1\":{},\"q3\":{}}}",
        s.len(),
        num(Some(median(&s))),
        num(q1),
        num(q3)
    )
}

fn record(pr: u64, commit: Option<&str>, parent: &str, runs: &[Run]) -> String {
    let mut by_workload: BTreeMap<&str, Vec<&Run>> = BTreeMap::new();
    for r in runs {
        by_workload.entry(&r.workload).or_default().push(r);
    }
    let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|t| {
        t.lines().find_map(|l| {
            l.strip_prefix("model name")?.split_once(':').map(|(_, v)| v.trim().to_string())
        })
    });
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let nproc = runs.iter().find_map(|r| r.nproc);

    let mut workloads = Vec::new();
    let mut fingerprints = Vec::new();
    for (name, rs) in &by_workload {
        let seeds_of = |side: &str| -> Vec<u64> {
            let mut v: Vec<u64> = rs.iter().filter(|r| r.side == side).map(|r| r.seed).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let (parent_seeds, change_seeds) = (seeds_of("parent"), seeds_of("change"));
        let mut seeds = [parent_seeds.clone(), change_seeds.clone()].concat();
        seeds.sort_unstable();
        seeds.dedup();
        let pairs = rs
            .iter()
            .filter(|r| r.side == "change" && !r.traced)
            .filter(|c| rs.iter().any(|p| p.side == "parent" && !p.traced && p.seed == c.seed))
            .count();
        let metrics: Vec<String> = METRICS
            .iter()
            .map(|m| {
                format!(
                    "\"{m}\":{{\"parent\":{},\"change\":{}}}",
                    summary(rs, "parent", m),
                    summary(rs, "change", m)
                )
            })
            .collect();
        let run_rows: Vec<String> = rs
            .iter()
            .map(|r| {
                format!(
                    "{{\"side\":\"{}\",\"seed\":{},\"traced\":{},\"correct\":{},\"attempted\":{},\
                     \"failed\":{},\"ops_per_s\":{}}}",
                    r.side,
                    r.seed,
                    r.traced,
                    opt(r.correct),
                    opt(r.attempted),
                    opt(r.failed),
                    num(r.metrics.get("ops_per_s").copied())
                )
            })
            .collect();
        workloads.push(format!(
            "\"{name}\":{{\"seeds\":{seeds:?},\"pairs\":{pairs},\"metrics\":{{{}}},\"runs\":[{}]}}",
            metrics.join(","),
            run_rows.join(",")
        ));

        let printed = |side: &str, seed: u64| {
            rs.iter()
                .find(|r| r.side == side && r.seed == seed)
                .and_then(|r| r.fingerprint.as_deref())
        };
        if let Some(&first) = change_seeds.iter().find(|&&s| printed("change", s).is_some()) {
            let same = change_seeds
                .iter()
                .filter(|s| parent_seeds.contains(s))
                .all(|&s| printed("parent", s) == printed("change", s));
            fingerprints.push(format!(
                "\"{name}\":{{\"seed\":{first},\"answers\":{},\"parent_equal\":{same}}}",
                string(printed("change", first))
            ));
        }
    }
    format!(
        "{{\"pr\":{pr},\"commit\":{},\"parent\":{},\"source\":\"e2e_record\",\
         \"host\":{{\"nproc\":{},\"cpu\":{},\"rustc\":{}}},\"workloads\":{{{}}},\
         \"fingerprints\":{{{}}}}}",
        string(commit),
        string(Some(parent)),
        opt(nproc),
        string(cpu.as_deref()),
        string(rustc.as_deref()),
        workloads.join(","),
        fingerprints.join(",")
    )
}

/// The file with `record` as a new last line of its array; an empty or
/// missing file starts one.
fn append(old: &str, record: &str) -> Result<String, String> {
    let old = old.trim_end();
    let body = match old {
        "" => "[",
        _ => old.strip_suffix(']').ok_or("the file does not end with its array's `]`")?.trim_end(),
    };
    let sep = if body.ends_with('[') { "\n" } else { ",\n" };
    Ok(format!("{body}{sep}{record}\n]\n"))
}

/// The file is one JSON array and every record line carries a host with
/// a numeric `nproc`. Returns the record count.
fn check(text: &str) -> Result<usize, String> {
    sknn_obs::json::validate(text).map_err(|at| format!("not JSON at byte {at}"))?;
    if !text.trim_start().starts_with('[') {
        return Err("not a JSON array".to_string());
    }
    let mut n = 0;
    for (i, line) in text.lines().enumerate().filter(|(_, l)| l.starts_with('{')) {
        let nproc =
            line.split_once("\"host\":{\"nproc\":").and_then(|(_, tail)| number_prefix(tail));
        if nproc.is_none() {
            return Err(format!("record on line {} has no host nproc", i + 1));
        }
        n += 1;
    }
    Ok(n)
}

/// Every record line but the last names its commit.
fn commits_named(text: &str) -> Result<(), String> {
    let records: Vec<(usize, &str)> =
        text.lines().enumerate().filter(|(_, l)| l.starts_with('{')).collect();
    for &(i, line) in records.iter().rev().skip(1) {
        if !after(line, "\"commit\":").is_some_and(|c| c.starts_with('"')) {
            return Err(format!(
                "record on line {} has no commit; only the newest record may lack one",
                i + 1
            ));
        }
    }
    Ok(())
}

/// The text after the first `key` in `s`.
fn after<'a>(s: &'a str, key: &str) -> Option<&'a str> {
    s.split_once(key).map(|(_, tail)| tail)
}

/// ROADMAP's state table: per workload, the change-side medians of the
/// last record holding one, with the record's PR and host.
fn table(text: &str) -> Result<String, String> {
    check(text)?;
    let mut latest: BTreeMap<String, String> = BTreeMap::new();
    for line in text.lines().filter(|l| l.starts_with('{')) {
        let pr = opt(after(line, "\"pr\":").and_then(number_prefix));
        let nproc = opt(after(line, "\"nproc\":").and_then(number_prefix));
        let cpu = after(line, "\"cpu\":\"").and_then(|t| t.split('"').next()).unwrap_or("cpu n/a");
        let Some(body) = after(line, "\"workloads\":{") else { continue };
        // `"name":{"seeds":…`: each piece but the last ends with a
        // workload's name, and the piece after it holds its metrics.
        let pieces: Vec<&str> = body.split(":{\"seeds\":").collect();
        for pair in pieces.windows(2) {
            let name = pair[0].rsplit('"').nth(1).unwrap_or_default();
            let median = |metric: &str| {
                let change = after(pair[1], &format!("\"{metric}\":{{\"parent\":"))
                    .and_then(|t| after(t, "\"change\":"))?;
                if change.starts_with("null") {
                    return None;
                }
                after(change, "\"median\":").and_then(number_prefix)
            };
            if let Some(ops) = median("ops_per_s") {
                latest.insert(
                    name.to_string(),
                    format!(
                        "| `{name}` | {ops:.1} | {} | {} | {pr} | {nproc} × {cpu} |",
                        median("op_p50_ms").map_or("null".to_string(), |v| format!("{v:.3}")),
                        median("peak_rss_mb").map_or("null".to_string(), |v| format!("{v:.1}"))
                    ),
                );
            }
        }
    }
    let mut out = String::from(
        "| workload | ops/s | op_p50_ms | peak_rss_mb | PR | host |\n|---|---:|---:|---:|---:|---|\n",
    );
    for row in latest.values() {
        out.push_str(row);
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUNS: &str = "\
parent: environment workload=warm_cpu seed=1 seconds=10 traced=false nproc=2 commit=unknown
parent: environment mr3_config=Mr3Config { k: 5 }
parent: fingerprint warm_cpu seed=1 answers=0x00000000000000aa
parent: {\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"ops_per_s\": {\"value\": 100.5, \"unit\": \"1/s\"}}}
change: environment workload=warm_cpu seed=1 seconds=10 traced=false nproc=2 commit=abc
change: fingerprint warm_cpu seed=1 answers=0x00000000000000aa
change: {\"correct\": true, \"attempted\": 12, \"failed\": 1, \"metrics\": {\"ops_per_s\": {\"value\": 120, \"unit\": \"1/s\"}, \"setup_s\": {\"value\": 0.2, \"unit\": \"s\"}}}
";

    #[test]
    fn runs_parse_and_a_record_appends_to_a_valid_file() {
        let runs = parse_runs(RUNS);
        assert_eq!(runs.len(), 2);
        assert_eq!((runs[1].attempted, runs[1].failed), (Some(12), Some(1)));
        assert_eq!(runs[1].metrics.get("ops_per_s"), Some(&120.0));
        let rec = record(9, None, "p", &runs);
        assert!(rec.contains("\"pairs\":1"), "{rec}");
        assert!(rec.contains("\"parent_equal\":true"), "{rec}");
        assert!(rec.contains("\"peak_rss_mb\":{\"parent\":null,\"change\":null}"), "{rec}");
        let once = append("", &rec).unwrap();
        let twice = append(&once, &rec).unwrap();
        assert_eq!(check(&once), Ok(1));
        assert_eq!(check(&twice), Ok(2));
        assert!(append("[\n{\"pr\":1}", &rec).is_err(), "a cut file is refused, not replaced");
    }

    #[test]
    fn the_table_shows_each_workloads_latest_change_median() {
        let runs = parse_runs(RUNS);
        let older = record(8, None, "p", &runs).replace("\"median\":120", "\"median\":90");
        let file = append(&append("", &older).unwrap(), &record(9, None, "p", &runs)).unwrap();
        let table = table(&file).unwrap();
        let rows: Vec<&str> = table.lines().skip(2).collect();
        assert_eq!(rows.len(), 1, "{table}");
        assert!(rows[0].starts_with("| `warm_cpu` | 120.0 | null | null | 9 | 2 × "), "{table}");
    }

    #[test]
    fn a_record_without_a_host_fails_the_check() {
        assert!(check("[\n{\"pr\":1,\"host\":null}\n]\n").is_err());
        assert!(check("[\n{\"pr\":1,\"host\":{\"nproc\":2}\n]\n").is_err(), "not JSON");
        assert_eq!(check("[\n{\"pr\":1,\"host\":{\"nproc\":2}}\n]\n"), Ok(1));
    }

    #[test]
    fn only_the_newest_record_may_lack_a_commit() {
        let runs = parse_runs(RUNS);
        let (named, unnamed) =
            (record(8, Some("abc1234"), "p", &runs), record(9, None, "p", &runs));
        let ok = append(&append("", &named).unwrap(), &unnamed).unwrap();
        assert_eq!(commits_named(&ok), Ok(()));
        assert_eq!(commits_named(&append("", &unnamed).unwrap()), Ok(()));
        let bad = append(&ok, &record(10, Some("def5678"), "p", &runs)).unwrap();
        let err = commits_named(&bad).unwrap_err();
        assert!(err.contains("line 3"), "{err}");
    }

    #[test]
    fn quartiles_follow_the_exclusive_method() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!((quartile(&s, 1), median(&s), quartile(&s, 3)), (1.5, 3.0, 4.5));
    }
}
