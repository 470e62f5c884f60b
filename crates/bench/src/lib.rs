//! Shared harness for the figure-regeneration binaries.
//!
//! Every binary regenerates one table/figure of the paper's evaluation
//! (§5) as CSV on stdout, with progress notes on stderr. Workloads are
//! deterministic (seeded); sizes default to a few minutes of laptop time
//! and can be scaled with flags:
//!
//! ```text
//! --grid N         terrain grid points per side (default per figure)
//! --queries N      query points averaged per configuration
//! --seed N         master seed
//! --trace-out F    append per-query JSONL traces to file F
//! ```

use sknn_core::mr3::Mr3Engine;
use sknn_core::workload::{Scene, SceneBuilder, SurfacePoint};
use sknn_obs::{LogHistogram, QueryTrace};
use sknn_terrain::dem::TerrainConfig;
use sknn_terrain::mesh::TerrainMesh;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::io::Write;
use std::time::{Duration, Instant};

/// Minimal flag parser: `--name value` pairs and `--name=value` tokens.
///
/// Both spellings are accepted and may be mixed freely — the `=` form is
/// what systemd units and container command lines typically emit
/// (`sknn serve --port=7070`). Malformed input is not silently dropped: a
/// trailing `--flag` with no value and stray tokens that are not part of
/// any pair are reported on stderr at parse time, and flags that no `get`
/// ever asked about are reported when the `Args` is dropped (they are
/// usually typos for a flag the binary does support).
#[derive(Debug)]
pub struct Args {
    pairs: Vec<(String, String)>,
    accessed: RefCell<BTreeSet<String>>,
}

impl Args {
    pub fn parse() -> Self {
        Self::from_argv(std::env::args().skip(1).collect())
    }

    /// Parse an explicit argument vector (testable core of [`parse`](Self::parse)).
    pub fn from_argv(argv: Vec<String>) -> Self {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            if let Some(name) = argv[i].strip_prefix("--") {
                if let Some((n, v)) = name.split_once('=') {
                    // `--name=value`: self-contained; only the first `=`
                    // splits, so values may themselves contain `=`.
                    pairs.push((n.to_string(), v.to_string()));
                    i += 1;
                } else if i + 1 < argv.len() {
                    pairs.push((name.to_string(), argv[i + 1].clone()));
                    i += 2;
                } else {
                    eprintln!("# warning: flag --{name} is missing a value and was ignored");
                    i += 1;
                }
            } else {
                eprintln!(
                    "# warning: stray argument {:?} ignored (flags are `--name value` pairs)",
                    argv[i]
                );
                i += 1;
            }
        }
        Self { pairs, accessed: RefCell::new(BTreeSet::new()) }
    }

    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.get_opt(name).unwrap_or(default)
    }

    /// Like [`get`](Self::get) but without a default — `None` when the flag
    /// is absent or unparsable.
    pub fn get_opt<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.accessed.borrow_mut().insert(name.to_string());
        self.pairs.iter().rev().find(|(n, _)| n == name).and_then(|(_, v)| v.parse().ok())
    }
}

impl Drop for Args {
    fn drop(&mut self) {
        let accessed = self.accessed.borrow();
        for (name, _) in &self.pairs {
            if !accessed.contains(name) {
                eprintln!("# warning: unknown flag --{name} was ignored by this binary");
            }
        }
    }
}

/// JSONL trace writer behind the shared `--trace-out FILE` flag.
///
/// When the flag is present, call [`TraceSink::attach`] on each engine
/// (turns tracing on) and feed every result's trace to
/// [`TraceSink::record`]. Traces of all queries append to one file —
/// records carry a query sequence number, so the stream stays
/// attributable. On drop the sink flushes and prints a one-line roll-up
/// (record count and a pages-per-query histogram summary) on stderr.
pub struct TraceSink {
    out: std::io::BufWriter<std::fs::File>,
    path: String,
    records: u64,
    queries: u64,
    pages: LogHistogram,
}

impl TraceSink {
    /// Build from `--trace-out FILE`; `None` when the flag is absent.
    pub fn from_args(args: &Args) -> Option<Self> {
        let path: String = args.get_opt("trace-out")?;
        match std::fs::File::create(&path) {
            Ok(f) => Some(Self {
                out: std::io::BufWriter::new(f),
                path,
                records: 0,
                queries: 0,
                pages: LogHistogram::new(),
            }),
            Err(e) => {
                eprintln!("# warning: cannot open --trace-out {path}: {e}");
                None
            }
        }
    }

    /// Enable tracing on an engine so its results carry traces.
    pub fn attach(&self, engine: &mut Mr3Engine<'_, '_>) {
        engine.enable_tracing();
    }

    /// Append one query's trace to the file.
    pub fn record(&mut self, trace: &QueryTrace) {
        let _ = self.out.write_all(trace.to_jsonl().as_bytes());
        self.records += trace.records.len() as u64;
        self.queries += 1;
        for r in &trace.records {
            if r.name == "query" || r.name == "range_query" {
                if let Some(p) = r.get_u64("pages") {
                    self.pages.record(p);
                }
            }
        }
    }
}

impl Drop for TraceSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
        eprintln!(
            "# trace: {} records from {} queries -> {} (pages/query: {})",
            self.records,
            self.queries,
            self.path,
            self.pages.summary()
        );
    }
}

/// The two evaluation terrains of the paper, scaled to `grid`.
pub fn bh_mesh(grid: usize, seed: u64) -> TerrainMesh {
    TerrainConfig::bh().with_grid(grid).build_mesh(seed)
}

pub fn ep_mesh(grid: usize, seed: u64) -> TerrainMesh {
    TerrainConfig::ep().with_grid(grid).build_mesh(seed)
}

/// Build a scene with `o` objects per km² (falling back to a minimum
/// object count so small grids still have data to query).
pub fn scene_with_density<'m>(mesh: &'m TerrainMesh, o: f64, seed: u64) -> Scene<'m> {
    let area = mesh.extent().area() / 1e6;
    let n = ((o * area).round() as usize).max(32);
    SceneBuilder::new(mesh).object_density_per_km2(o).object_count(n).seed(seed).build()
}

/// Deterministic query batch.
pub fn queries(scene: &Scene<'_>, n: usize, seed: u64) -> Vec<SurfacePoint> {
    scene.random_queries(n, seed)
}

/// Wall-clock one closure.
pub fn time_it<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The `p`-th percentile (0–100, nearest-rank on a sorted copy); 0.0 for
/// an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((p.clamp(0.0, 100.0) / 100.0) * (v.len() - 1) as f64).round() as usize;
    v[idx]
}

/// Emit a CSV header + note on stderr.
pub fn start_figure(name: &str, columns: &str) {
    eprintln!("# {name}");
    println!("{columns}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_handles_empty() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 51.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        // Order-independent.
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 50.0), 3.0);
    }

    #[test]
    fn scene_min_count() {
        let mesh = bh_mesh(17, 1);
        let s = scene_with_density(&mesh, 1.0, 2);
        assert!(s.num_objects() >= 32);
    }

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_parse_pairs_last_wins() {
        let a = Args::from_argv(argv(&["--grid", "33", "--seed", "7", "--grid", "65"]));
        assert_eq!(a.get("grid", 0usize), 65);
        assert_eq!(a.get("seed", 0u64), 7);
        assert_eq!(a.get("queries", 4usize), 4);
    }

    #[test]
    fn args_trailing_valueless_flag_is_dropped_not_mispaired() {
        // The old parser's `while i + 1 < len` silently dropped the final
        // `--queries`; it must still not be mis-parsed as a pair.
        let a = Args::from_argv(argv(&["--grid", "33", "--queries"]));
        assert_eq!(a.get("grid", 0usize), 33);
        assert_eq!(a.get("queries", 9usize), 9);
    }

    #[test]
    fn args_stray_tokens_do_not_shift_pairing() {
        let a = Args::from_argv(argv(&["stray", "--grid", "33", "oops", "--seed", "2"]));
        assert_eq!(a.get("grid", 0usize), 33);
        assert_eq!(a.get("seed", 0u64), 2);
    }

    #[test]
    fn args_equals_form_parses_and_mixes_with_pairs() {
        let a = Args::from_argv(argv(&["--port=7070", "--grid", "33", "--seed=9"]));
        assert_eq!(a.get("port", 0u16), 7070);
        assert_eq!(a.get("grid", 0usize), 33);
        assert_eq!(a.get("seed", 0u64), 9);
    }

    #[test]
    fn args_equals_form_last_wins_across_styles() {
        let a = Args::from_argv(argv(&["--grid", "17", "--grid=65"]));
        assert_eq!(a.get("grid", 0usize), 65);
        let b = Args::from_argv(argv(&["--grid=65", "--grid", "17"]));
        assert_eq!(b.get("grid", 0usize), 17);
    }

    #[test]
    fn args_equals_form_value_may_contain_equals() {
        // Only the first `=` splits: profile specs like seed:rate:kind or
        // key=value payloads survive intact.
        let a = Args::from_argv(argv(&["--label=x=y"]));
        assert_eq!(a.get_opt::<String>("label"), Some("x=y".to_string()));
    }

    #[test]
    fn args_trailing_equals_flag_is_a_pair_with_empty_value() {
        // `--out=` is a complete token (empty value), not a valueless flag.
        let a = Args::from_argv(argv(&["--out=", "--grid", "33"]));
        assert_eq!(a.get_opt::<String>("out"), Some(String::new()));
        assert_eq!(a.get("grid", 0usize), 33);
    }

    #[test]
    fn args_get_opt_absent_and_present() {
        let a = Args::from_argv(argv(&["--trace-out", "/tmp/t.jsonl"]));
        assert_eq!(a.get_opt::<String>("trace-out").as_deref(), Some("/tmp/t.jsonl"));
        assert_eq!(a.get_opt::<u64>("grid"), None);
    }

    #[test]
    fn trace_sink_writes_jsonl() {
        let dir = std::env::temp_dir().join("sknn_trace_sink_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.jsonl");
        let a = Args::from_argv(argv(&["--trace-out", path.to_str().unwrap()]));
        let mut sink = TraceSink::from_args(&a).expect("sink");
        let trace = QueryTrace {
            records: vec![sknn_obs::Record {
                kind: sknn_obs::RecordKind::Span,
                name: "query",
                query: 0,
                fields: vec![sknn_obs::field("dur_us", 5u64), sknn_obs::field("pages", 12u64)],
            }],
            dropped: 0,
        };
        sink.record(&trace);
        drop(sink);
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 1);
        assert!(sknn_obs::json::validate(body.lines().next().unwrap()).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
