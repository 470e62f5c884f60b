//! The traced run's span log: one span per layer boundary the harness can
//! see from outside the program, plus counter snapshots taken at the same
//! boundaries. Everything stays in memory until the pass ends.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Span {
    id: u32,
    /// `0` = a root span.
    parent: u32,
    /// Operation the span belongs to; all spans of one request share it.
    op: u64,
    name: &'static str,
    start_us: f64,
    end_us: f64,
}

#[derive(Debug, Clone, Copy)]
struct Count {
    op: u64,
    name: &'static str,
    value: f64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    counts: Vec<Count>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), counts: Vec::new() }
    }

    /// Microseconds from the tracer's epoch to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Record a span and return its id (to parent its children on).
    pub fn span(
        &mut self,
        op: u64,
        parent: u32,
        name: &'static str,
        start_us: f64,
        dur_us: f64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span { id, parent, op, name, start_us, end_us: start_us + dur_us });
        id
    }

    /// Record child spans laid end to end from the parent's start. Only a
    /// child's *duration* is measured (the program reports stage times, not
    /// stage timestamps), so the offsets inside the parent are nominal.
    pub fn children(
        &mut self,
        op: u64,
        parent: u32,
        start_us: f64,
        stages: &[(&'static str, f64)],
    ) {
        let mut at = start_us;
        for &(name, dur_us) in stages {
            self.span(op, parent, name, at, dur_us);
            at += dur_us;
        }
    }

    pub fn count(&mut self, op: u64, name: &'static str, value: f64) {
        self.counts.push(Count { op, name, value });
    }

    /// Write the log as JSONL: one line per span (with its self time: the
    /// span minus what its children cover) and one per counter snapshot.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut child_us = vec![0.0f64; self.spans.len() + 1];
        for s in &self.spans {
            child_us[s.parent as usize] += s.end_us - s.start_us;
        }
        let mut out = String::new();
        for s in &self.spans {
            let dur = s.end_us - s.start_us;
            let _ = writeln!(
                out,
                "{{\"kind\":\"span\",\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\
                 \"start_us\":{:.1},\"end_us\":{:.1},\"self_us\":{:.1}}}",
                s.op,
                s.id,
                s.parent,
                s.name,
                s.start_us,
                s.end_us,
                (dur - child_us[s.id as usize]).max(0.0)
            );
        }
        for c in &self.counts {
            let _ = writeln!(
                out,
                "{{\"kind\":\"count\",\"op\":{},\"name\":\"{}\",\"value\":{}}}",
                c.op, c.name, c.value
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
