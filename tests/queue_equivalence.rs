//! Queue-policy equivalence: the Dial bucket queue every Dijkstra run
//! uses is a bit-identical replacement for the binary heap it replaced.
//!
//! The heap survives inside `geodesic::graph` as the oracle: a property
//! test over random bounded-weight graphs pins the Dijkstra core
//! (distances, predecessors, settle and queue counters) against it. Every
//! Dijkstra consumer (front ranking, pathnet refinement, SDN lower bounds,
//! constrained paths) runs that one core, so the engine has no policy to
//! flip above it.

use proptest::prelude::*;
use surface_knn::geodesic::graph::{Dijkstra, Graph, QueuePolicy};

fn graph_from(n: usize, raw: &[(u32, u32, f64)]) -> Graph {
    let edges: Vec<(u32, u32, f64)> =
        raw.iter().map(|&(a, b, w)| (a % n as u32, b % n as u32, w)).collect();
    Graph::from_undirected(n, &edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    /// On random bounded-weight graphs, both policies agree bit-for-bit on
    /// distances and exactly on predecessors, settle counts, and every
    /// queue counter — with multiple offset sources and with/without an
    /// early-exit target.
    #[test]
    fn policies_agree_on_random_graphs(
        n in 1usize..64,
        raw in proptest::collection::vec(
            (any::<u32>(), any::<u32>(), 0.0f64..100.0), 0..192),
        source_picks in proptest::collection::vec((any::<u32>(), 0.0f64..5.0), 1..4),
        early_exit in any::<bool>(),
    ) {
        let g = graph_from(n, &raw);
        let sources: Vec<(u32, f64)> =
            source_picks.iter().map(|&(s, d)| (s % n as u32, d)).collect();
        let target = if early_exit { Some((n as u32) / 3) } else { None };
        let heap = Dijkstra::run_multi_with(&g, &sources, target, QueuePolicy::Heap);
        let bucket = Dijkstra::run_multi_with(&g, &sources, target, QueuePolicy::Bucket);
        prop_assert_eq!(heap.settled, bucket.settled);
        prop_assert_eq!(heap.queue.pushes, bucket.queue.pushes);
        prop_assert_eq!(heap.queue.pops, bucket.queue.pops);
        prop_assert_eq!(heap.queue.stale_pops, bucket.queue.stale_pops);
        for v in 0..n as u32 {
            prop_assert_eq!(
                heap.dist[v as usize].to_bits(),
                bucket.dist[v as usize].to_bits()
            );
            prop_assert_eq!(heap.prev[v as usize], bucket.prev[v as usize]);
        }
    }
}
