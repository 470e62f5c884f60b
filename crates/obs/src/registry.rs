//! A pull-model metrics registry rendering Prometheus text exposition
//! format (version 0.0.4).
//!
//! Sources register *closures*, not values: every [`Registry::render`]
//! call re-reads the live counters, so a scrape always sees the current
//! state without any push path on the hot side. The registry is
//! lifetime-parameterized so sources can borrow from non-`'static`
//! structures (the serving layer registers the engine's pager, which the
//! server itself only borrows).
//!
//! Histograms render from [`HistogramSnapshot`]s: log2 buckets become
//! cumulative `le` buckets at `2^i - 1` (the inclusive upper bound of
//! bucket `i`), followed by `+Inf`, `_sum`, and `_count` — exactly what
//! `histogram_quantile()` and the `sknn top` client expect.

use crate::hist::{HistogramSnapshot, LOG_BUCKETS};
use std::sync::Mutex;

/// What a scalar metric means to a scraper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing.
    Counter,
    /// Goes up and down.
    Gauge,
}

impl MetricKind {
    fn type_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

type ValueFn<'a> = Box<dyn Fn() -> f64 + Send + Sync + 'a>;
type HistFn<'a> = Box<dyn Fn() -> HistogramSnapshot + Send + Sync + 'a>;

enum Source<'a> {
    Value(MetricKind, ValueFn<'a>),
    Histogram(HistFn<'a>),
}

struct Entry<'a> {
    name: String,
    help: String,
    /// Pre-rendered label pairs without braces, e.g. `stage="rank"`;
    /// empty for unlabeled metrics.
    labels: String,
    source: Source<'a>,
}

/// A set of registered metric sources, rendered on demand.
pub struct Registry<'a> {
    entries: Mutex<Vec<Entry<'a>>>,
    /// Label pairs stamped on every registered family (e.g.
    /// `instance="shard0"`), so one scraper can tell fleet members apart.
    base_labels: String,
}

impl Default for Registry<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> Registry<'a> {
    /// An empty registry.
    pub fn new() -> Self {
        Self { entries: Mutex::new(Vec::new()), base_labels: String::new() }
    }

    /// An empty registry whose every family carries `instance="<name>"`.
    /// A fleet scraper (`sknn top --endpoints`) uses the label to
    /// attribute samples to their shard or router after aggregation.
    pub fn with_instance(instance: &str) -> Self {
        let mut escaped = String::with_capacity(instance.len());
        for c in instance.chars() {
            match c {
                '\\' => escaped.push_str("\\\\"),
                '"' => escaped.push_str("\\\""),
                '\n' => escaped.push_str("\\n"),
                c => escaped.push(c),
            }
        }
        Self { entries: Mutex::new(Vec::new()), base_labels: format!("instance=\"{escaped}\"") }
    }

    /// The pre-rendered base label pairs (empty without an instance).
    pub fn base_labels(&self) -> &str {
        &self.base_labels
    }

    /// Base labels merged with entry-specific pairs.
    fn merge_labels(&self, labels: &str) -> String {
        match (self.base_labels.is_empty(), labels.is_empty()) {
            (true, _) => labels.to_string(),
            (false, true) => self.base_labels.clone(),
            (false, false) => format!("{},{}", self.base_labels, labels),
        }
    }

    /// Register a counter read through `f` at render time.
    pub fn counter_fn(&self, name: &str, help: &str, f: impl Fn() -> u64 + Send + Sync + 'a) {
        self.value_fn(name, help, MetricKind::Counter, move || f() as f64);
    }

    /// Register a gauge read through `f` at render time.
    pub fn gauge_fn(&self, name: &str, help: &str, f: impl Fn() -> f64 + Send + Sync + 'a) {
        self.value_fn(name, help, MetricKind::Gauge, f);
    }

    /// Register a scalar of the given kind read through `f` at render
    /// time — for tables of rows whose kind is data.
    pub fn value_fn(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        f: impl Fn() -> f64 + Send + Sync + 'a,
    ) {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels: self.merge_labels(""),
            source: Source::Value(kind, Box::new(f)),
        });
    }

    /// Register a histogram snapshotted through `f` at render time.
    /// `labels` is either empty or pre-rendered pairs like `stage="rank"`;
    /// several histograms may share a `name` with different labels (HELP
    /// and TYPE are emitted once per name).
    pub fn histogram_fn(
        &self,
        name: &str,
        help: &str,
        labels: &str,
        f: impl Fn() -> HistogramSnapshot + Send + Sync + 'a,
    ) {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels: self.merge_labels(labels),
            source: Source::Histogram(Box::new(f)),
        });
    }

    /// Render every registered source as Prometheus text exposition
    /// format, reading all values now.
    pub fn render(&self) -> String {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::with_capacity(entries.len() * 96);
        let mut last_header: Option<String> = None;
        for e in entries.iter() {
            if last_header.as_deref() != Some(e.name.as_str()) {
                out.push_str("# HELP ");
                out.push_str(&e.name);
                out.push(' ');
                out.push_str(&e.help);
                out.push('\n');
                out.push_str("# TYPE ");
                out.push_str(&e.name);
                out.push(' ');
                let type_name = match &e.source {
                    Source::Value(kind, _) => kind.type_name(),
                    Source::Histogram(_) => "histogram",
                };
                out.push_str(type_name);
                out.push('\n');
                last_header = Some(e.name.clone());
            }
            match &e.source {
                Source::Value(_, f) => {
                    out.push_str(&e.name);
                    if !e.labels.is_empty() {
                        out.push('{');
                        out.push_str(&e.labels);
                        out.push('}');
                    }
                    out.push(' ');
                    push_f64(&mut out, f());
                    out.push('\n');
                }
                Source::Histogram(f) => render_histogram(&mut out, &e.name, &e.labels, &f()),
            }
        }
        out
    }
}

/// Cumulative `le` buckets up to the highest non-empty bucket, then
/// `+Inf`, `_sum`, `_count`. Bucket `i` of a [`LogHistogram`] holds values
/// `< 2^i`, so its inclusive Prometheus bound is `2^i - 1`.
fn render_histogram(out: &mut String, name: &str, labels: &str, snap: &HistogramSnapshot) {
    let top = snap.buckets.iter().rposition(|&c| c > 0).map_or(1, |i| i.clamp(1, LOG_BUCKETS - 2));
    let mut cum = 0u64;
    for (i, &c) in snap.buckets.iter().enumerate().take(top + 1) {
        cum += c;
        let le = if i == 0 { 0 } else { (1u64 << i) - 1 };
        bucket_line(out, name, labels, &le.to_string(), cum);
    }
    bucket_line(out, name, labels, "+Inf", snap.count());
    out.push_str(name);
    out.push_str("_sum");
    label_block(out, labels, None);
    out.push(' ');
    out.push_str(&snap.sum.to_string());
    out.push('\n');
    out.push_str(name);
    out.push_str("_count");
    label_block(out, labels, None);
    out.push(' ');
    out.push_str(&snap.count().to_string());
    out.push('\n');
}

fn bucket_line(out: &mut String, name: &str, labels: &str, le: &str, cum: u64) {
    out.push_str(name);
    out.push_str("_bucket");
    label_block(out, labels, Some(le));
    out.push(' ');
    out.push_str(&cum.to_string());
    out.push('\n');
}

fn label_block(out: &mut String, labels: &str, le: Option<&str>) {
    if labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    out.push_str(labels);
    if let Some(le) = le {
        if !labels.is_empty() {
            out.push(',');
        }
        out.push_str("le=\"");
        out.push_str(le);
        out.push('"');
    }
    out.push('}');
}

fn push_f64(out: &mut String, v: f64) {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        out.push_str(&format!("{}", v as i64));
    } else {
        out.push_str(&format!("{v}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LogHistogram;

    #[test]
    fn renders_counters_and_gauges() {
        let reg = Registry::new();
        reg.counter_fn("sknn_requests_total", "Requests served.", || 42);
        reg.gauge_fn("sknn_queue_depth", "Requests queued.", || 3.5);
        let text = reg.render();
        assert!(text.contains("# HELP sknn_requests_total Requests served.\n"));
        assert!(text.contains("# TYPE sknn_requests_total counter\n"));
        assert!(
            text.contains("\nsknn_requests_total 42\n")
                || text.starts_with("sknn_requests_total 42\n")
                || text.contains("sknn_requests_total 42\n")
        );
        assert!(text.contains("# TYPE sknn_queue_depth gauge\n"));
        assert!(text.contains("sknn_queue_depth 3.5\n"));
    }

    #[test]
    fn renders_histograms_cumulatively() {
        let h = LogHistogram::new();
        h.record(1);
        h.record(5); // bucket 3: [4,8)
        h.record(5);
        let reg = Registry::new();
        reg.histogram_fn("sknn_latency_us", "Latency.", "stage=\"rank\"", || h.snapshot());
        let text = reg.render();
        assert!(text.contains("# TYPE sknn_latency_us histogram\n"));
        // Cumulative counts at le = 2^i - 1: 1 ∈ [1,2) ≤ 1; 5s ≤ 7.
        assert!(text.contains("sknn_latency_us_bucket{stage=\"rank\",le=\"1\"} 1\n"), "{text}");
        assert!(text.contains("sknn_latency_us_bucket{stage=\"rank\",le=\"7\"} 3\n"), "{text}");
        assert!(text.contains("sknn_latency_us_bucket{stage=\"rank\",le=\"+Inf\"} 3\n"));
        assert!(text.contains("sknn_latency_us_sum{stage=\"rank\"} 11\n"));
        assert!(text.contains("sknn_latency_us_count{stage=\"rank\"} 3\n"));
    }

    #[test]
    fn shared_name_emits_one_header() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        a.record(1);
        b.record(1);
        let reg = Registry::new();
        reg.histogram_fn("sknn_stage_us", "Stage latency.", "stage=\"a\"", || a.snapshot());
        reg.histogram_fn("sknn_stage_us", "Stage latency.", "stage=\"b\"", || b.snapshot());
        let text = reg.render();
        assert_eq!(text.matches("# TYPE sknn_stage_us histogram").count(), 1);
        assert!(text.contains("stage=\"a\""));
        assert!(text.contains("stage=\"b\""));
    }

    #[test]
    fn instance_label_stamps_every_family() {
        let h = LogHistogram::new();
        h.record(3);
        let reg = Registry::with_instance("shard1");
        reg.counter_fn("sknn_requests_total", "Requests served.", || 7);
        reg.gauge_fn("sknn_queue_depth", "Requests queued.", || 2.0);
        reg.histogram_fn("sknn_stage_us", "Stage latency.", "stage=\"rank\"", || h.snapshot());
        let text = reg.render();
        assert!(text.contains("sknn_requests_total{instance=\"shard1\"} 7\n"), "{text}");
        assert!(text.contains("sknn_queue_depth{instance=\"shard1\"} 2\n"), "{text}");
        assert!(
            text.contains("sknn_stage_us_bucket{instance=\"shard1\",stage=\"rank\",le=\"3\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("sknn_stage_us_count{instance=\"shard1\",stage=\"rank\"} 1\n"));
    }

    #[test]
    fn instance_label_escapes_quotes() {
        let reg = Registry::with_instance("a\"b\\c");
        reg.counter_fn("sknn_x", "X.", || 1);
        assert!(reg.render().contains("sknn_x{instance=\"a\\\"b\\\\c\"} 1\n"));
    }

    #[test]
    fn borrowed_sources_are_allowed() {
        // The lifetime parameter at work: a registry over a stack value.
        let local = 7u64;
        let reg = Registry::new();
        reg.counter_fn("sknn_local", "Borrowed source.", || local);
        assert!(reg.render().contains("sknn_local 7\n"));
    }
}
