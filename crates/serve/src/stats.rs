//! The one stats path: a metric is declared once, in a
//! [`metrics_table!`](crate::metrics_table) row, and the struct field,
//! the `STATS`-frame entry and the [`sknn_obs::Registry`] family are
//! generated from that row. [`crate::edge::EdgeStats`] holds the rows
//! every serving process shares; [`ServeStats`] adds the shard server's.
//!
//! The server's per-stage histograms decompose `latency_us` along the
//! request's path: admission queue wait → engine execution (itself split
//! into the four MR3 steps) — plus the pager stall time that passed
//! during the engine call. Stage sums are ≤ the end-to-end latency; the
//! remainder is dispatch overhead and reply writing.

use crate::edge::EdgeStats;

/// Declares a block of metrics. Each row is `field: "help"`; the help
/// text doubles as the field's doc line (extra `///` lines may precede a
/// row). A counter `c` is the `STATS` key `c` and the family
/// `<prefix>c_total`; a histogram `h_us` is the family `<prefix>h_us`
/// and, when the row lists percentiles (`[50, 95]`), the `STATS` keys
/// `h_p50_us`, `h_p95_us` and the sample count `h_us_n` — so a reader can
/// tell "p50 of nothing" from a genuine sub-microsecond p50. The prefix
/// is the caller's, so shared rows are stamped under each process's own.
/// An optional leading `parts { field: Type, .. }` section embeds other
/// blocks as plain fields (their rows are read and registered by the
/// owner, under whatever prefix they take).
#[macro_export]
macro_rules! metrics_table {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( parts { $( $(#[$em:meta])* $e:ident: $ety:ty ),* $(,)? } )?
            counters { $( $(#[$cm:meta])* $c:ident: $chelp:literal ),* $(,)? }
            hists { $( $(#[$hm:meta])* $h:ident: $hhelp:literal $([$($p:literal),+])? ),* $(,)? }
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        pub struct $name {
            $($( $(#[$em])* pub $e: $ety, )*)?
            $( $(#[$cm])* #[doc = $chelp] pub $c: ::sknn_obs::Counter, )*
            $( $(#[$hm])* #[doc = $hhelp] pub $h: ::sknn_obs::LogHistogram, )*
        }

        impl $name {
            /// Appends this block's `STATS`-frame entries to `out`.
            /// Quantiles come from log2 histograms, so they are
            /// bucket-resolution approximations.
            pub fn stats_rows(&self, out: &mut Vec<(String, u64)>) {
                $( out.push((stringify!($c).to_string(), self.$c.get())); )*
                $($(
                    let stem = stringify!($h).trim_end_matches("_us");
                    $( out.push((
                        format!("{stem}_p{}_us", $p),
                        self.$h.quantile($p as f64 / 100.0).unwrap_or(0),
                    )); )+
                    out.push((concat!(stringify!($h), "_n").to_string(), self.$h.count()));
                )?)*
            }

            /// Registers every row into `reg` under `prefix`.
            pub fn register_rows<'a>(&'a self, reg: &::sknn_obs::Registry<'a>, prefix: &str) {
                $( reg.counter_fn(
                    &format!("{prefix}{}_total", stringify!($c)),
                    $chelp,
                    move || self.$c.get(),
                ); )*
                $( reg.histogram_fn(
                    &format!("{prefix}{}", stringify!($h)),
                    $hhelp,
                    "",
                    move || self.$h.snapshot(),
                ); )*
            }
        }
    };
}

metrics_table! {
    /// Engine hot-path counters. They live under their own
    /// `sknn_dijkstra_` prefix: they describe kernel work (queue traffic,
    /// settled nodes), not request plumbing.
    pub struct KernelStats {
        counters {
            dijkstra_pushes: "Dijkstra priority-queue pushes across served queries",
            dijkstra_pops: "Dijkstra priority-queue pops across served queries",
            dijkstra_stale_pops: "Dijkstra stale pops (superseded entries discarded)",
            dijkstra_settled: "Dijkstra nodes settled across served queries",
        }
        hists {}
    }
}

metrics_table! {
    /// Everything a shard server counts, shared by the connection readers
    /// and the workers: the [`EdgeStats`] rows every serving process
    /// has (read through `Deref`, so `stats.shed` and `stats.accepted`
    /// sit side by side), the kernel counters, and its own rows. The
    /// queue depth is not here — the lanes know their own length.
    pub struct ServeStats {
        parts {
            /// The rows every serving process has.
            edge: EdgeStats,
            /// Engine hot-path counters.
            kernel: KernelStats,
        }
        counters {
            accepted: "Requests admitted to the queue",
            query_errors: "Queries returning a typed engine error",
            degraded: "Successful responses carrying a degradation marker",
            slow_captured: "Requests captured by the slow-query log",
            /// Both count executed jobs — a job is a batch of one. Kept
            /// only because the frozen benchmark harness divides them.
            batches: "Jobs executed (one engine call each)",
            batched_requests: "Requests executed (equals batches)",
        }
        hists {
            exec_us: "Engine call wall time per request, microseconds",
            stage_knn2d_us: "MR3 step 1 (2D k-NN seeding) wall time, microseconds",
            stage_radius_us: "MR3 step 2 (radius estimation) wall time, microseconds",
            stage_range_us: "MR3 step 3 (planar range query) wall time, microseconds",
            stage_rank_us: "MR3 step 4 (iterative ranking) wall time, microseconds",
            /// The shared stall clock differenced around the engine call,
            /// so overlapping requests each see the other's stalls too.
            stall_us: "Pager stall wall time during the engine call, microseconds",
        }
    }
}

impl std::ops::Deref for ServeStats {
    type Target = EdgeStats;
    fn deref(&self) -> &EdgeStats {
        &self.edge
    }
}

impl ServeStats {
    /// One-line human summary for the shutdown log.
    pub fn summary(&self) -> String {
        format!(
            "{} conns, {} accepted, {} completed, {} shed, {} expired, \
             {} shutdown-rejected, {} protocol errors; latency {}",
            self.connections.get(),
            self.accepted.get(),
            self.completed.get(),
            self.shed.get(),
            self.expired.get(),
            self.rejected_shutdown.get(),
            self.protocol_errors.get(),
            self.latency_us.summary(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sknn_obs::Registry;

    fn rows(s: &ServeStats) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        s.edge.stats_rows(&mut out);
        s.stats_rows(&mut out);
        out
    }

    fn get(rows: &[(String, u64)], name: &str) -> u64 {
        rows.iter().find(|(n, _)| n == name).unwrap_or_else(|| panic!("no {name} entry")).1
    }

    /// The `_n` entries disambiguate the quantile fallback: an empty
    /// histogram reports quantile 0 *and* count 0; a populated one whose
    /// samples all landed in bucket 0 reports quantile 0 with a nonzero
    /// count.
    #[test]
    fn stats_counts_disambiguate_zero_quantiles() {
        let s = ServeStats::default();
        let empty = rows(&s);
        assert_eq!(get(&empty, "latency_p50_us"), 0);
        assert_eq!(get(&empty, "latency_us_n"), 0);
        s.latency_us.record(0);
        s.latency_us.record(0);
        let populated = rows(&s);
        assert_eq!(get(&populated, "latency_p50_us"), 0);
        assert_eq!(get(&populated, "latency_us_n"), 2);
    }

    #[test]
    fn registry_exposes_counters_and_histograms() {
        let s = ServeStats::default();
        s.accepted.inc();
        s.latency_us.record(100);
        let reg = Registry::new();
        s.edge.register_rows(&reg, "sknn_serve_");
        s.register_rows(&reg, "sknn_serve_");
        s.kernel.register_rows(&reg, "sknn_");
        let text = reg.render();
        assert!(text.contains("sknn_serve_accepted_total 1"), "{text}");
        assert!(text.contains("sknn_dijkstra_pushes_total 0"), "{text}");
        assert!(text.contains("sknn_serve_latency_us_count 1"), "{text}");
    }
}
