//! Router-side metrics: how many queries were routed, how many straddled
//! a tile boundary and fanned out, and the router's own stage latencies —
//! exported under the `sknn_shard_` prefix so a fleet dashboard can tell
//! router work from shard work at a glance. Declared once, in a
//! [`metrics_table!`](sknn_serve::metrics_table); the rows every serving
//! process shares are [`EdgeStats`].

use sknn_serve::edge::EdgeStats;

sknn_serve::metrics_table! {
    /// Everything the router counts, shared by its connection readers
    /// and worker pool: the [`EdgeStats`] rows every serving process has
    /// (read through `Deref`, so `stats.shed` and `stats.routed` sit side
    /// by side) and the routing rows below. The gauges — queue depth, map
    /// size, fleet objects — are not stored: the lanes and the router
    /// already hold those values.
    pub struct RouterStats {
        parts {
            /// The rows every serving process has.
            edge: EdgeStats,
        }
        counters {
            routed: "Queries admitted and routed to a home shard",
            /// The query circle stayed inside one tile.
            interior: "Queries answered by the interior fast path",
            fanned_out: "Queries that straddled a boundary and fanned out",
            /// Partial results merged, re-ranked and bound-verified.
            merged: "Straddling queries merged into a verified answer",
            /// Always 0: the router sends no speculative legs, so it has
            /// none to withdraw. Kept only because the frozen benchmark
            /// harness reads it.
            cancelled_legs: "Speculative fan-out legs cancelled (always 0)",
            /// Transport error, timeout, or a typed shard error relayed
            /// to the client.
            leg_failures: "Shard legs that failed",
            /// The `ub(p_k) ≤ lb(p_{k+1})` separation test did not hold
            /// (to the engine's own 1e-9 margin) — the top-k is correct
            /// by upper-bound order but not provably separated from the
            /// runner-up, the same terminal state the union engine
            /// reports when its refinement schedule ends first. A
            /// resolution-quality signal, not an error.
            bound_violations: "Merged answers not provably separated from the runner-up",
        }
        hists {
            route_us: "Route stage (dequeue to home leg sent), microseconds",
            /// Straddling queries only.
            fanout_us: "Fan-out stage (seeds, radius, range), microseconds",
            /// Straddling queries only.
            merge_us: "Merge stage (merge, exec, bound check), microseconds",
        }
    }
}

impl std::ops::Deref for RouterStats {
    type Target = EdgeStats;
    fn deref(&self) -> &EdgeStats {
        &self.edge
    }
}

impl RouterStats {
    /// One-line human summary for the shutdown log.
    pub fn summary(&self) -> String {
        format!(
            "{} conns, {} routed ({} interior, {} fanned out, {} merged), \
             {} leg failures, {} bound violations; latency {}",
            self.connections.get(),
            self.routed.get(),
            self.interior.get(),
            self.fanned_out.get(),
            self.merged.get(),
            self.leg_failures.get(),
            self.bound_violations.get(),
            self.latency_us.summary(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sknn_obs::Registry;

    #[test]
    fn registry_exposes_the_shard_families() {
        let s = RouterStats::default();
        s.routed.inc();
        s.fanned_out.inc();
        s.cancelled_legs.add(3);
        let reg = Registry::new();
        s.edge.register_rows(&reg, "sknn_shard_");
        s.register_rows(&reg, "sknn_shard_");
        let text = reg.render();
        assert!(text.contains("sknn_shard_routed_total 1"), "{text}");
        assert!(text.contains("sknn_shard_fanned_out_total 1"), "{text}");
        assert!(text.contains("sknn_shard_merged_total 0"), "{text}");
        assert!(text.contains("sknn_shard_cancelled_legs_total 3"), "{text}");
        assert!(text.contains("sknn_shard_shed_total 0"), "{text}");
    }
}
