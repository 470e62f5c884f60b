//! Order statistics, the named-metric report, and the answer checks shared
//! by every workload.

use crate::pace::HostClock;
use std::collections::BTreeMap;
use std::time::Instant;
use surface_knn::core::metrics::Neighbor;

/// Metric name → measured value. Names are checked against
/// `BENCHMARK.json` when the report is printed.
#[derive(Debug, Default)]
pub struct Report {
    pub values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let prev = self.values.insert(name, value);
        assert!(prev.is_none(), "metric {name} set twice");
    }
}

/// Linear-interpolated quantile of an unsorted sample (`q` in `[0, 1]`);
/// `0` for an empty sample — a layer the workload never entered.
pub fn quantile(sample: &[f64], q: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut s = sample.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(sample: &[f64]) -> f64 {
    quantile(sample, 0.5)
}

pub fn mean(sample: &[f64]) -> f64 {
    if sample.is_empty() {
        0.0
    } else {
        sample.iter().sum::<f64>() / sample.len() as f64
    }
}

/// `num / den`, `0` when the denominator is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The quartile spread the acceptance check uses: `(Q3 − Q1) / median`
/// with the exclusive-method quartiles of Python's
/// `statistics.quantiles(values, n=4)`.
pub fn quartile_spread(sample: &[f64]) -> f64 {
    let mut s = sample.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        return 0.0;
    }
    let cut = |i: usize| {
        let pos = (i * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        s[j - 1] + (s[j] - s[j - 1]) * (pos - j as f64)
    };
    ratio(cut(3) - cut(1), median(&s).abs())
}

/// Completed operations of one measured window.
#[derive(Debug, Default)]
pub struct Ops {
    pub start: Vec<Instant>,
    pub end: Vec<Instant>,
    /// Seconds of each op that do not depend on the host's speed (the
    /// simulated disk stall is a sleep) and so must not be normalised.
    /// Only a single-threaded loop may report any: the throughput
    /// arithmetic assumes they do not overlap.
    pub fixed_s: Vec<f64>,
}

impl Ops {
    pub fn push(&mut self, start: Instant, end: Instant, fixed_s: f64) {
        self.start.push(start);
        self.end.push(end);
        self.fixed_s.push(fixed_s);
    }

    pub fn len(&self) -> usize {
        self.end.len()
    }

    /// Latencies as the wall clock read them, ms.
    pub fn raw_ms(&self) -> Vec<f64> {
        self.start.iter().zip(&self.end).map(|(&s, &e)| (e - s).as_secs_f64() * 1e3).collect()
    }

    /// How much longer op `i` reads once its host-independent part is
    /// put back at face value: `fixed × (1 − normalised / raw)`.
    fn fixed_correction(&self, clock: &HostClock, i: usize) -> f64 {
        let raw = (self.end[i] - self.start[i]).as_secs_f64();
        self.fixed_s[i] * (1.0 - ratio(clock.secs(self.start[i], self.end[i]), raw))
    }

    /// Latencies on the host-normalised clock, ms.
    pub fn latency_ms(&self, clock: &HostClock) -> Vec<f64> {
        (0..self.len())
            .map(|i| {
                (clock.secs(self.start[i], self.end[i]) + self.fixed_correction(clock, i)) * 1e3
            })
            .collect()
    }

    /// Throughput on the host-normalised clock, as the median over five
    /// equal consecutive segments of the completions, so one neighbour's
    /// burst on a shared host moves at most one segment.
    pub fn ops_per_s(&self, clock: &HostClock, window_start: Instant) -> f64 {
        const SEGMENTS: usize = 5;
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by_key(|&i| self.end[i]);
        let per = (order.len() / SEGMENTS).max(1);
        let mut from = window_start;
        let rates: Vec<f64> = order
            .chunks_exact(per)
            .take(SEGMENTS)
            .map(|seg| {
                let to = self.end[seg[per - 1]];
                let fixed: f64 = seg.iter().map(|&i| self.fixed_correction(clock, i)).sum();
                let rate = ratio(per as f64, clock.secs(from, to) + fixed);
                from = to;
                rate
            })
            .collect();
        median(&rates)
    }

    /// The three end-to-end rows every workload reports about its primary
    /// operation.
    pub fn report(&self, rep: &mut Report, clock: &HostClock, window_start: Instant) {
        let latency = self.latency_ms(clock);
        eprintln!(
            "host factor {:.3} (kernel time over nominal); raw op_p50_ms {:.4}",
            clock.median_factor(),
            median(&self.raw_ms())
        );
        rep.set("ops_per_s", self.ops_per_s(clock, window_start));
        rep.set("op_p50_ms", median(&latency));
        rep.set("op_p90_ms", quantile(&latency, 0.9));
    }
}

/// FNV-1a over the answer bits, order-sensitive.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(pub u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xCBF2_9CE4_8422_2325)
    }
}

impl Fingerprint {
    pub fn absorb(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// One answer reduced to what must repeat bit for bit.
pub type AnswerBits = Vec<(u32, u64, u64)>;

pub fn answer_bits(neighbors: &[Neighbor]) -> AnswerBits {
    neighbors.iter().map(|n| (n.id, n.range.lb.to_bits(), n.range.ub.to_bits())).collect()
}

/// The checks every answer must pass whatever produced it: `k` neighbours,
/// `lb ≤ ub` on each, ascending `ub`.
pub fn well_formed(answer: &AnswerBits, k: usize) -> bool {
    let f = f64::from_bits;
    answer.len() == k
        && answer.iter().all(|&(_, lb, ub)| f(lb) <= f(ub))
        && answer.windows(2).all(|w| f(w[0].2) <= f(w[1].2))
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
