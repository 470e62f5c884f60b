//! Aggregate serving metrics: lock-free counters, gauges, and latency
//! histograms, snapshotted into a [`StatsFrame`] for the `STATS` protocol
//! frame and the shutdown summary, and registered into an
//! [`sknn_obs::Registry`] for the Prometheus metrics endpoint.
//!
//! The per-stage histograms decompose `latency_us` along the request's
//! path: admission queue wait → micro-batch linger → engine execution
//! (itself split into the four MR3 steps) — plus the pager stall time of
//! the batch the request rode in. Stage sums are ≤ the end-to-end
//! latency; the remainder is dispatch overhead and reply writing.

use crate::protocol::StatsFrame;
use sknn_obs::{Counter, LogHistogram, Registry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters shared by the accept loop, per-connection readers, and the
/// dispatcher. Everything is monotonic except `queue_depth`, a gauge.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Connections accepted.
    pub connections: Counter,
    /// Requests admitted to the queue.
    pub accepted: Counter,
    /// Requests answered with a successful response.
    pub completed: Counter,
    /// Requests shed at admission because the queue was full.
    pub shed: Counter,
    /// Requests dropped at dequeue because their deadline had expired.
    pub expired: Counter,
    /// Requests rejected because the server was draining.
    pub rejected_shutdown: Counter,
    /// Malformed or unexpected frames received.
    pub protocol_errors: Counter,
    /// Queries that ran but returned a typed engine error.
    pub query_errors: Counter,
    /// Engine calls that panicked; each was answered with a typed
    /// `Internal` error and the dispatcher kept serving.
    pub panics: Counter,
    /// Requests withdrawn from the queue by a `CANCEL` frame (v3).
    pub cancelled: Counter,
    /// `CANCEL` frames that missed (request already executing, unknown,
    /// or already answered).
    pub cancel_misses: Counter,
    /// Successful responses that carried a degradation marker.
    pub degraded: Counter,
    /// Requests captured by the slow-query log.
    pub slow_captured: Counter,
    /// Micro-batches dispatched to the engine.
    pub batches: Counter,
    /// Requests executed across all batches (`batched_requests / batches`
    /// is the mean coalescing factor — the adaptive batcher's yield).
    pub batched_requests: Counter,
    /// Reply writes that failed (client gone mid-flight).
    pub write_errors: Counter,
    /// Dijkstra priority-queue pushes across all served queries.
    pub dijkstra_pushes: Counter,
    /// Dijkstra priority-queue pops across all served queries.
    pub dijkstra_pops: Counter,
    /// Dijkstra stale pops (superseded entries discarded on pop).
    pub dijkstra_stale_pops: Counter,
    /// Dijkstra nodes settled across all served queries.
    pub dijkstra_settled: Counter,
    /// Requests currently queued (gauge).
    pub queue_depth: AtomicU64,
    /// Time spent waiting in the queue (arrival → dispatcher pickup), µs.
    pub queue_us: LogHistogram,
    /// Time between dispatcher pickup and batch execution start, µs.
    pub linger_us: LogHistogram,
    /// Engine batch execution time, recorded once per request, µs.
    pub exec_us: LogHistogram,
    /// Engine step 1 (2D k-NN seeding) per-request wall time, µs.
    pub stage_knn2d_us: LogHistogram,
    /// Engine step 2 (radius estimation) per-request wall time, µs.
    pub stage_radius_us: LogHistogram,
    /// Engine step 3 (planar range query) per-request wall time, µs.
    pub stage_range_us: LogHistogram,
    /// Engine step 4 (iterative ranking) per-request wall time, µs.
    pub stage_rank_us: LogHistogram,
    /// Pager stall wall time per batch (recorded once per batch), µs.
    pub stall_us: LogHistogram,
    /// End-to-end server-side latency (enqueue to reply), microseconds.
    pub latency_us: LogHistogram,
    /// Micro-batch sizes.
    pub batch_size: LogHistogram,
}

impl ServeStats {
    /// Fresh, all-zero stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mean requests per dispatched micro-batch (0 before any batch).
    pub fn mean_batch(&self) -> f64 {
        let batches = self.batches.get();
        if batches == 0 {
            0.0
        } else {
            self.batched_requests.get() as f64 / batches as f64
        }
    }

    /// Snapshot for the `STATS` frame. Quantiles come from the log2
    /// histograms, so they are bucket-resolution approximations; the mean
    /// batch size is scaled by 1000 to survive the integer wire format.
    ///
    /// Every quantile entry is paired with an `_n` sample-count entry for
    /// its histogram, so a reader can tell "p50 of nothing" (count 0,
    /// quantile reported 0) from a genuine sub-microsecond p50.
    pub fn snapshot(&self) -> StatsFrame {
        let q = |h: &LogHistogram, p: f64| h.quantile(p).unwrap_or(0);
        let entries = vec![
            ("connections".to_string(), self.connections.get()),
            ("accepted".to_string(), self.accepted.get()),
            ("completed".to_string(), self.completed.get()),
            ("shed".to_string(), self.shed.get()),
            ("expired".to_string(), self.expired.get()),
            ("rejected_shutdown".to_string(), self.rejected_shutdown.get()),
            ("protocol_errors".to_string(), self.protocol_errors.get()),
            ("query_errors".to_string(), self.query_errors.get()),
            ("panics".to_string(), self.panics.get()),
            ("cancelled".to_string(), self.cancelled.get()),
            ("cancel_misses".to_string(), self.cancel_misses.get()),
            ("degraded".to_string(), self.degraded.get()),
            ("slow_captured".to_string(), self.slow_captured.get()),
            ("batches".to_string(), self.batches.get()),
            ("batched_requests".to_string(), self.batched_requests.get()),
            ("write_errors".to_string(), self.write_errors.get()),
            ("dijkstra_pushes".to_string(), self.dijkstra_pushes.get()),
            ("dijkstra_pops".to_string(), self.dijkstra_pops.get()),
            ("dijkstra_stale_pops".to_string(), self.dijkstra_stale_pops.get()),
            ("dijkstra_settled".to_string(), self.dijkstra_settled.get()),
            ("queue_depth".to_string(), self.queue_depth.load(Ordering::Relaxed)),
            ("mean_batch_x1000".to_string(), (self.mean_batch() * 1000.0).round() as u64),
            ("queue_p50_us".to_string(), q(&self.queue_us, 0.5)),
            ("queue_us_n".to_string(), self.queue_us.count()),
            ("linger_p50_us".to_string(), q(&self.linger_us, 0.5)),
            ("linger_us_n".to_string(), self.linger_us.count()),
            ("latency_p50_us".to_string(), q(&self.latency_us, 0.5)),
            ("latency_p95_us".to_string(), q(&self.latency_us, 0.95)),
            ("latency_p99_us".to_string(), q(&self.latency_us, 0.99)),
            ("latency_us_n".to_string(), self.latency_us.count()),
        ];
        StatsFrame { entries }
    }

    /// Registers every counter, the queue-depth gauge, and all latency
    /// histograms into `reg` under the `sknn_serve_` prefix. Sources are
    /// `Arc` clones, so the registry may outlive the server loop.
    pub fn register_into(self: &Arc<Self>, reg: &Registry<'_>) {
        macro_rules! counters {
            ($($field:ident => $help:expr),+ $(,)?) => {$(
                let s = Arc::clone(self);
                reg.counter_fn(
                    concat!("sknn_serve_", stringify!($field), "_total"),
                    $help,
                    move || s.$field.get(),
                );
            )+};
        }
        counters! {
            connections => "Connections accepted",
            accepted => "Requests admitted to the queue",
            completed => "Requests answered with a successful response",
            shed => "Requests shed at admission (queue full)",
            expired => "Requests dropped at dequeue (deadline expired)",
            rejected_shutdown => "Requests rejected while draining",
            protocol_errors => "Malformed or unexpected frames received",
            query_errors => "Queries returning a typed engine error",
            panics => "Engine calls that panicked (answered with a typed Internal error)",
            cancelled => "Requests withdrawn from the queue by CANCEL",
            cancel_misses => "CANCEL frames that missed a queued request",
            degraded => "Successful responses carrying a degradation marker",
            slow_captured => "Requests captured by the slow-query log",
            batches => "Micro-batches dispatched to the engine",
            batched_requests => "Requests executed across all batches",
            write_errors => "Reply writes that failed",
        }
        // Engine hot-path counters live under their own `sknn_dijkstra_`
        // prefix: they describe kernel work (queue traffic, settled
        // nodes), not request plumbing.
        macro_rules! dijkstra {
            ($($field:ident => $name:expr, $help:expr);+ $(;)?) => {$(
                let s = Arc::clone(self);
                reg.counter_fn($name, $help, move || s.$field.get());
            )+};
        }
        dijkstra! {
            dijkstra_pushes => "sknn_dijkstra_pushes_total",
                "Dijkstra priority-queue pushes across served queries";
            dijkstra_pops => "sknn_dijkstra_pops_total",
                "Dijkstra priority-queue pops across served queries";
            dijkstra_stale_pops => "sknn_dijkstra_stale_pops_total",
                "Dijkstra stale pops (superseded entries discarded)";
            dijkstra_settled => "sknn_dijkstra_settled_total",
                "Dijkstra nodes settled across served queries";
        }
        let s = Arc::clone(self);
        reg.gauge_fn("sknn_serve_queue_depth", "Requests currently queued", move || {
            s.queue_depth.load(Ordering::Relaxed) as f64
        });
        macro_rules! hists {
            ($($field:ident => $help:expr),+ $(,)?) => {$(
                let s = Arc::clone(self);
                reg.histogram_fn(
                    concat!("sknn_serve_", stringify!($field)),
                    $help,
                    "",
                    move || s.$field.snapshot(),
                );
            )+};
        }
        hists! {
            queue_us => "Admission queue wait, microseconds",
            linger_us => "Micro-batch linger share of latency, microseconds",
            exec_us => "Engine batch execution time per request, microseconds",
            stage_knn2d_us => "MR3 step 1 (2D k-NN seeding) wall time, microseconds",
            stage_radius_us => "MR3 step 2 (radius estimation) wall time, microseconds",
            stage_range_us => "MR3 step 3 (planar range query) wall time, microseconds",
            stage_rank_us => "MR3 step 4 (iterative ranking) wall time, microseconds",
            stall_us => "Pager stall wall time per batch, microseconds",
            latency_us => "End-to-end server-side latency, microseconds",
            batch_size => "Micro-batch sizes",
        }
    }

    /// One-line human summary for the shutdown log.
    pub fn summary(&self) -> String {
        format!(
            "{} conns, {} accepted, {} completed, {} shed, {} expired, \
             {} shutdown-rejected, {} protocol errors; {} batches \
             (mean size {:.2}), latency {}",
            self.connections.get(),
            self.accepted.get(),
            self.completed.get(),
            self.shed.get(),
            self.expired.get(),
            self.rejected_shutdown.get(),
            self.protocol_errors.get(),
            self.batches.get(),
            self.mean_batch(),
            self.latency_us.summary(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_batch_and_snapshot() {
        let s = ServeStats::new();
        assert_eq!(s.mean_batch(), 0.0);
        s.batches.inc();
        s.batches.inc();
        s.batched_requests.add(7);
        let snap = s.snapshot();
        let get = |name: &str| snap.entries.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(get("batches"), 2);
        assert_eq!(get("batched_requests"), 7);
        assert_eq!(get("mean_batch_x1000"), 3500);
    }

    /// The `_n` entries disambiguate the quantile fallback: an empty
    /// histogram reports quantile 0 *and* count 0; a populated one whose
    /// samples all landed in bucket 0 reports quantile 0 with a nonzero
    /// count.
    #[test]
    fn snapshot_counts_disambiguate_zero_quantiles() {
        let s = ServeStats::new();
        let get =
            |snap: &StatsFrame, name: &str| snap.entries.iter().find(|(n, _)| n == name).unwrap().1;
        let empty = s.snapshot();
        assert_eq!(get(&empty, "latency_p50_us"), 0);
        assert_eq!(get(&empty, "latency_us_n"), 0);
        s.latency_us.record(0);
        s.latency_us.record(0);
        let populated = s.snapshot();
        assert_eq!(get(&populated, "latency_p50_us"), 0);
        assert_eq!(get(&populated, "latency_us_n"), 2);
    }

    #[test]
    fn registry_exposes_counters_and_histograms() {
        let s = Arc::new(ServeStats::new());
        s.accepted.inc();
        s.latency_us.record(100);
        let reg = Registry::new();
        s.register_into(&reg);
        let text = reg.render();
        assert!(text.contains("sknn_serve_accepted_total 1"), "{text}");
        assert!(text.contains("sknn_dijkstra_pushes_total 0"), "{text}");
        assert!(text.contains("sknn_serve_latency_us_count 1"), "{text}");
        assert!(text.contains("sknn_serve_queue_depth 0"), "{text}");
    }
}
