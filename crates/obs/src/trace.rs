//! A drained query trace: JSONL export, typed views of the well-known
//! records, and a human-readable convergence summary.
//!
//! # JSONL schema
//!
//! One JSON object per line, in emission order. Every record carries
//! `"t"` (`"span"` or `"event"`), `"q"` (the engine's query sequence
//! number) and `"name"`; the rest are free-form fields. The engine emits:
//!
//! * `{"t":"span","name":"step1_knn2d","dur_us":…,"k":…,"seeds":…}` — one
//!   per MR3 step (`step1_knn2d`, `step2_radius`, `step3_range`,
//!   `step4_rank`), plus a closing `query` span with the totals;
//! * `{"t":"event","name":"iter","phase":"rank","i":…,"dmtm_frac":…,
//!   "msdn_level":…,"alive":…,"kth_ub":…,"next_lb":…,"resolve_lb":…,
//!   "resolved":…,"ub_est":…,"lb_est":…,"dummy_lb":…,"settled":…,
//!   "pages":…,"stalls":…,"ahead_pages":…,"ahead_steps":…,
//!   "fetch_read_us":…,"fetch_decode_us":…,"fetch_derive_us":…}` — one per
//!   ranking iteration (phase `radius` for step 2, `rank` for step 4,
//!   `range` for surface range queries; `stalls` = read batches that paid
//!   the disk stall; `ahead_pages` = pages of the batch only its
//!   look-ahead asked for; `ahead_steps` = later schedule steps that
//!   look-ahead carried; the `fetch_*` clocks = the iteration's cut fetch
//!   less its stall, split into the read, the loads' decode and the front
//!   derivation);
//! * `{"t":"event","name":"io","structure":"dmtm","logical":…,
//!   "physical":…,"hits":…}` — per-structure page attribution (`physical`
//!   = distinct pages the query read, `hits` = its repeat reads of
//!   them), plus a `{"t":"event","name":"pool","hit_rate":…,"logical":…,
//!   "physical":…,"coalesced":…,"stalled_batches":…}` roll-up of the
//!   query's pager window (`stalled_batches` as `stalls`, over the query;
//!   `coalesced` = misses served without their own stall — a read batch's
//!   served misses beyond its first).

use crate::hist::LogHistogram;
use crate::record::{Record, RecordKind};

/// Everything one traced query emitted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryTrace {
    /// Records in emission order.
    pub records: Vec<Record>,
    /// Oldest records dropped by the ring buffer (0 unless the query
    /// out-ran the ring capacity).
    pub dropped: u64,
}

/// Typed view of one `span` record.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanInfo {
    /// Span name (e.g. `step2_radius`).
    pub name: &'static str,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
}

/// Typed view of one `iter` event — one ranking iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterEvent {
    /// Which ranking loop emitted it: `radius` (MR3 step 2), `rank`
    /// (step 4), or `range` (surface range query).
    pub phase: &'static str,
    /// Iteration index within the phase.
    pub i: u64,
    /// DMTM resolution fraction of this iteration's schedule entry
    /// (`> 1.0` means the pathnet level).
    pub dmtm_frac: f64,
    /// MSDN level index of this iteration.
    pub msdn_level: u64,
    /// Candidates still alive (not pruned) after the iteration.
    pub alive: u64,
    /// k-th smallest upper bound after the iteration (the pruning pivot).
    pub kth_ub: f64,
    /// (k+1)-th smallest lower bound over *all* candidates — monotone
    /// non-decreasing across iterations.
    pub next_lb: f64,
    /// The VA-file termination quantity: min lower bound among alive
    /// candidates ranked beyond k by upper bound.
    pub resolve_lb: f64,
    /// Whether the termination test held after this iteration.
    pub resolved: bool,
    /// Upper-bound estimations performed this iteration.
    pub ub_est: u64,
    /// Full lower-bound estimations performed this iteration.
    pub lb_est: u64,
    /// Dummy (corridor) lower bounds that sufficed this iteration.
    pub dummy_lb: u64,
    /// Dijkstra nodes settled this iteration.
    pub settled: u64,
    /// Physical pages read this iteration.
    pub pages: u64,
    /// Read batches this iteration that paid the disk stall (at most one
    /// per iteration when it runs alone).
    pub stalls: u64,
    /// Pages of this iteration's batch that only its look-ahead — later
    /// schedule steps' units and lines over this iteration's groups, and
    /// a radius iteration's lines for the ranking run after it — asked
    /// for.
    pub ahead_pages: u64,
    /// Later schedule steps of its own run this iteration's look-ahead
    /// carried: 0 for a batch that reads nothing, 1 while a region is
    /// unbounded (a run's first iteration), the rest of the schedule once
    /// all are bounded.
    pub ahead_steps: u64,
    /// Microseconds of this iteration's fetch in the claims, the plan and
    /// the batched read, stall excluded.
    pub fetch_read_us: u64,
    /// Microseconds of this iteration's fetch decoding and publishing the
    /// loaded units and lines.
    pub fetch_decode_us: u64,
    /// Microseconds of this iteration's fetch deriving fronts and their
    /// CSR graphs.
    pub fetch_derive_us: u64,
}

impl QueryTrace {
    /// Serialise as JSONL (one record per line, trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        out
    }

    /// All spans, in emission order.
    pub fn spans(&self) -> Vec<SpanInfo> {
        self.records
            .iter()
            .filter(|r| r.kind == RecordKind::Span)
            .map(|r| SpanInfo { name: r.name, dur_us: r.get_u64("dur_us").unwrap_or(0) })
            .collect()
    }

    /// All ranking-iteration events, in emission order.
    pub fn iter_events(&self) -> Vec<IterEvent> {
        self.records
            .iter()
            .filter(|r| r.kind == RecordKind::Event && r.name == "iter")
            .map(|r| IterEvent {
                phase: r.get("phase").and_then(|v| v.as_str()).unwrap_or("?"),
                i: r.get_u64("i").unwrap_or(0),
                dmtm_frac: r.get_f64("dmtm_frac").unwrap_or(f64::NAN),
                msdn_level: r.get_u64("msdn_level").unwrap_or(0),
                alive: r.get_u64("alive").unwrap_or(0),
                kth_ub: r.get_f64("kth_ub").unwrap_or(f64::INFINITY),
                next_lb: r.get_f64("next_lb").unwrap_or(0.0),
                resolve_lb: r.get_f64("resolve_lb").unwrap_or(0.0),
                resolved: r.get("resolved") == Some(crate::Value::B(true)),
                ub_est: r.get_u64("ub_est").unwrap_or(0),
                lb_est: r.get_u64("lb_est").unwrap_or(0),
                dummy_lb: r.get_u64("dummy_lb").unwrap_or(0),
                settled: r.get_u64("settled").unwrap_or(0),
                pages: r.get_u64("pages").unwrap_or(0),
                stalls: r.get_u64("stalls").unwrap_or(0),
                ahead_pages: r.get_u64("ahead_pages").unwrap_or(0),
                ahead_steps: r.get_u64("ahead_steps").unwrap_or(0),
                fetch_read_us: r.get_u64("fetch_read_us").unwrap_or(0),
                fetch_decode_us: r.get_u64("fetch_decode_us").unwrap_or(0),
                fetch_derive_us: r.get_u64("fetch_derive_us").unwrap_or(0),
            })
            .collect()
    }

    /// Per-structure I/O events (`name == "io"`), as
    /// `(structure, logical, physical)`.
    pub fn io_by_structure(&self) -> Vec<(&'static str, u64, u64)> {
        self.records
            .iter()
            .filter(|r| r.kind == RecordKind::Event && r.name == "io")
            .map(|r| {
                (
                    r.get("structure").and_then(|v| v.as_str()).unwrap_or("?"),
                    r.get_u64("logical").unwrap_or(0),
                    r.get_u64("physical").unwrap_or(0),
                )
            })
            .collect()
    }

    /// Human-readable convergence summary: per-step spans, the iteration
    /// table (bounds closing in on each other), and I/O attribution.
    pub fn convergence_summary(&self) -> String {
        let mut out = String::new();
        let spans = self.spans();
        if !spans.is_empty() {
            out.push_str("steps:\n");
            for s in &spans {
                out.push_str(&format!("  {:<16} {:>10.3} ms\n", s.name, s.dur_us as f64 / 1e3));
            }
        }

        let iters = self.iter_events();
        if !iters.is_empty() {
            out.push_str(
                "iterations:\n  phase   i  dmtm%   msdn   alive      kth_ub     next_lb  \
                 ub/lb/dummy   settled  pages\n",
            );
            let settled_hist = LogHistogram::new();
            let pages_hist = LogHistogram::new();
            for e in &iters {
                settled_hist.record(e.settled);
                pages_hist.record(e.pages);
                out.push_str(&format!(
                    "  {:<6} {:>2} {:>6} {:>6} {:>7} {:>11} {:>11}  {:>3}/{:<2}/{:<5} {:>8} {:>6}{}\n",
                    e.phase,
                    e.i,
                    if e.dmtm_frac > 1.0 {
                        "path".to_string()
                    } else {
                        format!("{:.1}", e.dmtm_frac * 100.0)
                    },
                    e.msdn_level,
                    e.alive,
                    fmt_bound(e.kth_ub),
                    fmt_bound(e.next_lb),
                    e.ub_est,
                    e.lb_est,
                    e.dummy_lb,
                    e.settled,
                    e.pages,
                    if e.resolved { "  <- resolved" } else { "" },
                ));
            }
            out.push_str(&format!(
                "  per-iteration settled: {}; pages: {}\n",
                settled_hist.summary(),
                pages_hist.summary()
            ));
        }

        let io = self.io_by_structure();
        if !io.is_empty() {
            out.push_str("page reads by structure (physical/logical):\n");
            for (structure, logical, physical) in io {
                out.push_str(&format!("  {structure:<10} {physical:>6} / {logical:<6}\n"));
            }
        }
        for r in &self.records {
            if r.name == "pool" {
                out.push_str(&format!(
                    "page window: hit rate {:.1}%",
                    r.get_f64("hit_rate").unwrap_or(0.0) * 100.0,
                ));
                // Absent in traces from older engines.
                if let Some(coalesced) = r.get_u64("coalesced") {
                    out.push_str(&format!(", {coalesced} coalesced misses"));
                }
                out.push('\n');
            }
        }
        if self.dropped > 0 {
            out.push_str(&format!("(ring dropped {} oldest records)\n", self.dropped));
        }
        out
    }
}

fn fmt_bound(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.2}")
    } else {
        "inf".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{field, Record, RecordKind};

    fn sample_trace() -> QueryTrace {
        QueryTrace {
            records: vec![
                Record {
                    kind: RecordKind::Span,
                    name: "step1_knn2d",
                    query: 0,
                    fields: vec![field("dur_us", 42u64), field("seeds", 5usize)],
                },
                Record {
                    kind: RecordKind::Event,
                    name: "iter",
                    query: 0,
                    fields: vec![
                        field("phase", "rank"),
                        field("i", 0usize),
                        field("dmtm_frac", 0.005),
                        field("msdn_level", 0u64),
                        field("alive", 12u64),
                        field("kth_ub", 250.0),
                        field("next_lb", 60.0),
                        field("resolve_lb", 55.0),
                        field("resolved", false),
                        field("ub_est", 12u64),
                        field("lb_est", 9u64),
                        field("dummy_lb", 3u64),
                        field("settled", 1234u64),
                        field("pages", 17u64),
                    ],
                },
                Record {
                    kind: RecordKind::Event,
                    name: "io",
                    query: 0,
                    fields: vec![
                        field("structure", "dmtm"),
                        field("logical", 30u64),
                        field("physical", 17u64),
                        field("hits", 13u64),
                    ],
                },
                Record {
                    kind: RecordKind::Event,
                    name: "pool",
                    query: 0,
                    fields: vec![field("hit_rate", 0.43), field("coalesced", 4u64)],
                },
            ],
            dropped: 0,
        }
    }

    #[test]
    fn jsonl_lines_are_valid_json() {
        let t = sample_trace();
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), t.records.len());
        for line in lines {
            assert!(crate::json::validate(line).is_ok(), "invalid: {line}");
        }
    }

    #[test]
    fn typed_views_roundtrip() {
        let t = sample_trace();
        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "step1_knn2d");
        assert_eq!(spans[0].dur_us, 42);

        let iters = t.iter_events();
        assert_eq!(iters.len(), 1);
        let e = &iters[0];
        assert_eq!(e.phase, "rank");
        assert_eq!(e.alive, 12);
        assert_eq!(e.kth_ub, 250.0);
        assert!(!e.resolved);
        assert_eq!(e.dummy_lb, 3);

        assert_eq!(t.io_by_structure(), vec![("dmtm", 30, 17)]);
    }

    #[test]
    fn summary_mentions_everything() {
        let s = sample_trace().convergence_summary();
        assert!(s.contains("step1_knn2d"));
        assert!(s.contains("rank"));
        assert!(s.contains("dmtm"));
        assert!(s.contains("hit rate"));
        assert!(s.contains("4 coalesced misses"));
    }

    /// Traces without the coalesced count (older engines) still render.
    #[test]
    fn summary_tolerates_missing_pool_counters() {
        let mut t = sample_trace();
        for r in &mut t.records {
            if r.name == "pool" {
                r.fields.retain(|f| f.key == "hit_rate");
            }
        }
        let s = t.convergence_summary();
        assert!(s.contains("hit rate"));
        assert!(!s.contains("coalesced"));
    }
}
