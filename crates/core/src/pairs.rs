//! Surface closest-pair queries (paper §6: the multiresolution framework
//! supports "other distance comparison based queries, such as range
//! queries and closest pair queries").
//!
//! Finds the pair of scene objects with the smallest *surface* distance
//! without computing any exact surface distance: pairs are pruned by the
//! Euclidean lower bound, then surviving pairs' distance ranges are
//! tightened level by level until one pair's upper bound undercuts every
//! other pair's lower bound.

use crate::bounds::DistRange;
use crate::metrics::QueryStats;
use crate::mr3::{Mr3Engine, QueryOpts};
use sknn_obs::{field, QueryTrace};

/// Result of a closest-pair query.
#[derive(Debug, Clone)]
pub struct ClosestPair {
    /// The winning object ids, `a < b`.
    pub a: u32,
    /// Second endpoint.
    pub b: u32,
    /// Bracketing range of the winning pair's surface distance.
    pub range: DistRange,
    /// Whether the winner provably beats every other pair (false only when
    /// the schedule ended with overlapping ranges; the midpoint-closest
    /// pair is then returned).
    pub proven: bool,
    /// Cost counters of the whole pair search.
    pub stats: QueryStats,
    /// Execution trace, when the engine has tracing enabled.
    pub trace: Option<QueryTrace>,
}

struct PairState {
    a: u32,
    b: u32,
    range: DistRange,
    alive: bool,
}

impl<'s, 'm> Mr3Engine<'s, 'm> {
    /// Find the two live objects closest by surface distance (`None` with
    /// fewer than two). Like every query op it runs over one pinned
    /// object snapshot: a deleted object cannot be returned, an inserted
    /// one can.
    pub fn closest_pair(&self) -> Option<ClosestPair> {
        let s = self.scoped(&QueryOpts::default(), "closest_pair", |s| {
            let ids = s.objs.live_ids();
            if ids.len() < 2 {
                return None;
            }
            // All pairs, seeded with the Euclidean lower bound.
            let mut pairs: Vec<PairState> = Vec::with_capacity(ids.len() * (ids.len() - 1) / 2);
            for (n, &i) in ids.iter().enumerate() {
                for &j in &ids[n + 1..] {
                    let (pi, pj) = (s.objs.point(i), s.objs.point(j));
                    let d = pi.pos.dist(pj.pos);
                    let mut range = DistRange::unbounded();
                    range.tighten_lb(d);
                    if pi.tri == pj.tri {
                        range.tighten_ub(d);
                    }
                    pairs.push(PairState { a: i, b: j, range, alive: true });
                }
            }
            s.stats.candidates = pairs.len();
            s.root.push(field("pairs", pairs.len()));

            let schedule = &self.config().schedule;
            let mut best_ub = f64::INFINITY;
            for iter in 0..schedule.len() {
                // Prune: a pair whose lower bound exceeds the best upper
                // bound can never win.
                for p in pairs.iter_mut() {
                    if p.alive && p.range.lb > best_ub + 1e-9 {
                        p.alive = false;
                    }
                }
                // Termination: one pair's ub at or below every other's lb.
                if self.pair_winner(&pairs).is_some() {
                    break;
                }
                let lvl = schedule.msdn_level(iter);
                for p in pairs.iter_mut() {
                    if !p.alive || p.range.width() <= 1e-9 {
                        continue;
                    }
                    // Only refine pairs that could still win.
                    if p.range.lb > best_ub + 1e-9 {
                        continue;
                    }
                    let est = s.ctx.estimate_pair(
                        &s.objs.point(p.a),
                        &s.objs.point(p.b),
                        iter,
                        lvl,
                        &mut s.stats,
                    );
                    p.range.tighten_lb(est.lb);
                    p.range.tighten_ub(est.ub);
                    best_ub = best_ub.min(p.range.ub);
                }
                s.stats.iterations += 1;
            }

            // Pick the winner (proven or by midpoint).
            let proven = self.pair_winner(&pairs);
            let winner = proven.unwrap_or_else(|| {
                pairs
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.alive)
                    .min_by(|(_, x), (_, y)| x.range.estimate().total_cmp(&y.range.estimate()))
                    .map(|(i, _)| i)
                    .expect("at least one pair alive")
            });
            let w = &pairs[winner];
            Some((w.a, w.b, w.range, proven.is_some()))
        });
        let (a, b, range, proven) = s.out?;
        Some(ClosestPair { a, b, range, proven, stats: s.stats, trace: s.trace })
    }

    /// Index of a pair whose ub is at or below every other alive pair's lb.
    fn pair_winner(&self, pairs: &[PairState]) -> Option<usize> {
        let (mut best, mut best_ub) = (None, f64::INFINITY);
        for (i, p) in pairs.iter().enumerate() {
            if p.alive && p.range.ub < best_ub {
                best_ub = p.range.ub;
                best = Some(i);
            }
        }
        let bi = best?;
        let ok = pairs
            .iter()
            .enumerate()
            .all(|(i, p)| i == bi || !p.alive || p.range.lb >= best_ub - 1e-9);
        ok.then_some(bi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ch::ChEngine;
    use crate::config::Mr3Config;
    use crate::workload::SceneBuilder;
    use sknn_terrain::dem::TerrainConfig;

    #[test]
    fn closest_pair_matches_brute_force() {
        let mesh = TerrainConfig::ep().with_grid(17).build_mesh(321);
        let scene = SceneBuilder::new(&mesh).object_count(16).seed(6).build();
        let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
        let got = engine.closest_pair().unwrap();

        // Brute force with the exact engine.
        let exact = ChEngine::new(&scene);
        let mut best = (f64::INFINITY, 0u32, 0u32);
        for i in 0..scene.num_objects() as u32 {
            for j in i + 1..scene.num_objects() as u32 {
                let d = exact.pair_distance(scene.object(i).point, scene.object(j).point);
                if d < best.0 {
                    best = (d, i, j);
                }
            }
        }
        let got_exact = exact.pair_distance(scene.object(got.a).point, scene.object(got.b).point);
        assert!(
            got_exact <= best.0 * 1.05 + 1e-6,
            "returned pair at {got_exact}, true best {}",
            best.0
        );
        // The reported range must bracket the returned pair's distance.
        assert!(got.range.lb <= got_exact + 1e-6 && got_exact <= got.range.ub + 1e-6);
    }

    #[test]
    fn closest_pair_trivial_cases() {
        let mesh = TerrainConfig::ep().with_grid(9).build_mesh(11);
        let single = SceneBuilder::new(&mesh).object_count(1).seed(1).build();
        let engine = Mr3Engine::build(&mesh, &single, &Mr3Config::default());
        assert!(engine.closest_pair().is_none());

        let two = SceneBuilder::new(&mesh).object_count(2).seed(1).build();
        let engine = Mr3Engine::build(&mesh, &two, &Mr3Config::default());
        let cp = engine.closest_pair().unwrap();
        assert_eq!((cp.a, cp.b), (0, 1));
    }

    #[test]
    fn closest_pair_follows_deletes_and_inserts() {
        let mesh = TerrainConfig::ep().with_grid(17).build_mesh(55);
        let scene = SceneBuilder::new(&mesh).object_count(12).seed(9).build();
        let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
        let first = engine.closest_pair().unwrap();

        // A deleted object cannot be returned.
        assert!(engine.objects().delete(first.a).unwrap());
        let second = engine.closest_pair().unwrap();
        assert!(second.a != first.a && second.b != first.a, "deleted {} returned", first.a);
        assert_eq!(second.stats.candidates, 11 * 10 / 2);

        // An inserted one can: a twin of a live object is at distance 0.
        let twin = engine.objects().insert(scene.object(second.a).point).unwrap();
        let third = engine.closest_pair().unwrap();
        assert_eq!((third.a, third.b), (second.a, twin));
        assert_eq!(third.range.ub, 0.0);
    }

    #[test]
    fn cold_closest_pair_costs_the_same_pages_every_time() {
        let mesh = TerrainConfig::ep().with_grid(17).build_mesh(55);
        let scene = SceneBuilder::new(&mesh).object_count(12).seed(9).build();
        let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
        assert!(engine.cold_cache);
        let pages: Vec<u64> = (0..2).map(|_| engine.closest_pair().unwrap().stats.pages).collect();
        assert!(pages[0] > 0);
        assert_eq!(pages[0], pages[1], "a cold run must not see the last run's cuts");
    }

    #[test]
    fn closest_pair_prunes_most_pairs() {
        let mesh = TerrainConfig::ep().with_grid(17).build_mesh(7);
        let scene = SceneBuilder::new(&mesh).object_count(20).seed(3).build();
        let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
        let cp = engine.closest_pair().unwrap();
        // 190 pairs exist; the Euclidean + range pruning should keep the
        // estimator from refining anywhere near all of them every level.
        assert!(cp.stats.candidates == 190);
        assert!(
            (cp.stats.ub_estimations as f64) < 190.0 * 3.0,
            "too many estimations: {}",
            cp.stats.ub_estimations
        );
    }
}
