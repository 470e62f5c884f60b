//! Host-speed normalisation.
//!
//! The hosts this benchmark runs on are shared: the same CPU-bound loop
//! switches between two speeds about 25 % apart every few seconds as a
//! neighbour comes and goes, which is more than any bound worth setting.
//! So every load thread also runs a small fixed *reference kernel* between
//! operations — a Dijkstra over a fixed grid graph, the engine's own kind
//! of work, owned by the benchmark so no change to the program can speed
//! it up — and end-to-end times are reported on a clock that ticks in
//! kernel time: an interval during which the kernel ran 20 % slow counts
//! as 20 % shorter. On a quiet host the clock is wall time scaled by a
//! constant. `README.md` records what this buys (the run-to-run spread of
//! a median roughly halves).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use surface_knn::core::metrics::CpuTimer;

/// Kernel time the normalised clock treats as "speed 1": about what the
/// reference host takes undisturbed, so normalised and raw times agree there.
const NOMINAL_KERNEL_S: f64 = 0.55e-3;
/// Kernel samples either side of one that its speed estimate is the median of.
const SMOOTH: usize = 2;

const SIDE: usize = 96;

/// Dijkstra from a corner of a fixed `SIDE × SIDE` grid graph with
/// pseudo-random weights: branchy heap traffic and scattered loads, like
/// the bound estimations that dominate a query.
fn kernel() -> u64 {
    static WEIGHTS: OnceLock<Vec<[f32; 2]>> = OnceLock::new();
    let w = WEIGHTS.get_or_init(|| {
        let mut x = 88_172_645_463_325_252u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            1.0 + (x % 1000) as f32 / 100.0
        };
        (0..SIDE * SIDE).map(|_| [next(), next()]).collect()
    });
    let mut dist = vec![f32::INFINITY; SIDE * SIDE];
    let mut heap = BinaryHeap::new();
    dist[0] = 0.0;
    heap.push(Reverse((0u32, 0u32)));
    let mut settled = 0u64;
    // Non-negative f32 bit patterns order like the floats themselves.
    while let Some(Reverse((d, u))) = heap.pop() {
        let u = u as usize;
        let du = f32::from_bits(d);
        if du > dist[u] {
            continue;
        }
        settled += 1;
        let (r, c) = (u / SIDE, u % SIDE);
        let mut relax = |v: usize, weight: f32| {
            let nd = du + weight;
            if nd < dist[v] {
                dist[v] = nd;
                heap.push(Reverse((nd.to_bits(), v as u32)));
            }
        };
        if c + 1 < SIDE {
            relax(u + 1, w[u][0]);
        }
        if c > 0 {
            relax(u - 1, w[u - 1][0]);
        }
        if r + 1 < SIDE {
            relax(u + SIDE, w[u][1]);
        }
        if r > 0 {
            relax(u - SIDE, w[u - SIDE][1]);
        }
    }
    settled
}

/// One thread's kernel samples: when, and how much thread CPU time the
/// kernel took (CPU time, so being descheduled behind the workload's own
/// threads does not read as a slow host).
#[derive(Debug, Default)]
pub struct Pace {
    samples: Vec<(Instant, f64)>,
}

impl Pace {
    pub fn new() -> Self {
        Pace::default()
    }

    pub fn sample(&mut self) {
        let mut cpu = Duration::ZERO;
        let timer = CpuTimer::start();
        black_box(kernel());
        timer.stop_into(&mut cpu);
        self.samples.push((Instant::now(), cpu.as_secs_f64()));
    }

    pub fn merge(&mut self, other: Pace) {
        self.samples.extend(other.samples);
    }

    /// The normalised clock over these samples.
    pub fn clock(mut self) -> HostClock {
        assert!(!self.samples.is_empty(), "a measured window samples the kernel");
        self.samples.sort_by_key(|s| s.0);
        let n = self.samples.len();
        let factor: Vec<f64> = (0..n)
            .map(|i| {
                let near = &self.samples[i.saturating_sub(SMOOTH)..(i + SMOOTH + 1).min(n)];
                let secs: Vec<f64> = near.iter().map(|s| s.1).collect();
                crate::stats::median(&secs) / NOMINAL_KERNEL_S
            })
            .collect();
        let at: Vec<Instant> = self.samples.iter().map(|s| s.0).collect();
        let mut tau = vec![0.0; n];
        for i in 1..n {
            tau[i] = tau[i - 1] + (at[i] - at[i - 1]).as_secs_f64() / factor[i - 1];
        }
        HostClock { at, factor, tau }
    }
}

/// Wall time → kernel-normalised time. The host's speed factor is taken
/// as constant from each kernel sample to the next.
#[derive(Debug)]
pub struct HostClock {
    at: Vec<Instant>,
    /// Smoothed kernel time over nominal at each sample; above 1 = slow host.
    factor: Vec<f64>,
    /// Normalised seconds from the first sample to each sample.
    tau: Vec<f64>,
}

impl HostClock {
    fn tau_at(&self, t: Instant) -> f64 {
        let i = self.at.partition_point(|&a| a <= t).saturating_sub(1);
        if t >= self.at[i] {
            self.tau[i] + (t - self.at[i]).as_secs_f64() / self.factor[i]
        } else {
            -(self.at[i] - t).as_secs_f64() / self.factor[i]
        }
    }

    /// Normalised seconds between two instants.
    pub fn secs(&self, from: Instant, to: Instant) -> f64 {
        self.tau_at(to) - self.tau_at(from)
    }

    /// Median speed factor over the samples (for the record).
    pub fn median_factor(&self) -> f64 {
        crate::stats::median(&self.factor)
    }
}
