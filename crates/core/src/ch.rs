//! The exact baseline — the role Chen–Han \[1\] plays in the paper.
//!
//! Computes true surface distances with the exact geodesic engine and
//! answers k-NN queries by ranking them. Exponentially more expensive than
//! MR3 (the point of the paper's Fig. 7), but indispensable as ground
//! truth for correctness tests and for the Fig. 7 regeneration.

use crate::bounds::DistRange;
use crate::metrics::{CpuTimer, Neighbor, QueryResult, QueryStats};
use crate::workload::{Scene, SurfacePoint};
use sknn_geodesic::ExactGeodesic;

/// Brute-force exact surface k-NN.
pub struct ChEngine<'s, 'm> {
    scene: &'s Scene<'m>,
    geo: ExactGeodesic<'m>,
}

impl<'s, 'm> ChEngine<'s, 'm> {
    /// Creates the value from its parts.
    pub fn new(scene: &'s Scene<'m>) -> Self {
        Self { scene, geo: ExactGeodesic::new(scene.mesh()) }
    }

    /// Exact surface distance between two surface points.
    pub fn pair_distance(&self, a: SurfacePoint, b: crate::workload::SurfacePoint) -> f64 {
        self.geo.distance(a.to_mesh_point(), b.to_mesh_point())
    }

    /// Exact surface range query: ids of objects within `radius`.
    pub fn range_query(&self, q: SurfacePoint, radius: f64) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .scene
            .objects()
            .iter()
            .filter(|o| {
                self.geo.distance(q.to_mesh_point(), o.point.to_mesh_point()) <= radius + 1e-9
            })
            .map(|o| o.id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Exact k-NN by computing every object's surface distance.
    pub fn query(&self, q: SurfacePoint, k: usize) -> QueryResult {
        let mut stats = QueryStats::default();
        let timer = CpuTimer::start();
        let mut dists: Vec<(f64, u32)> = self
            .scene
            .objects()
            .iter()
            .map(|o| (self.geo.distance(q.to_mesh_point(), o.point.to_mesh_point()), o.id))
            .collect();
        dists.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let neighbors = dists
            .into_iter()
            .take(k)
            .map(|(d, id)| Neighbor { id, range: DistRange::new(d, d) })
            .collect();
        timer.stop_into(&mut stats.cpu);
        stats.candidates = self.scene.num_objects();
        QueryResult { neighbors, stats, trace: None, degraded: None, radius: 0.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SceneBuilder;
    use sknn_terrain::dem::TerrainConfig;

    #[test]
    fn exact_knn_is_sorted_and_tight() {
        let mesh = TerrainConfig::ep().with_grid(9).build_mesh(42);
        let scene = SceneBuilder::new(&mesh).object_count(12).seed(3).build();
        let ch = ChEngine::new(&scene);
        let q = scene.random_query(1);
        let res = ch.query(q, 5);
        assert_eq!(res.neighbors.len(), 5);
        for n in &res.neighbors {
            assert_eq!(n.range.lb, n.range.ub); // exact
        }
        for w in res.neighbors.windows(2) {
            assert!(w[0].range.ub <= w[1].range.ub);
        }
        // First neighbour's distance must match a direct pair computation.
        let d0 = ch.pair_distance(q, scene.object(res.neighbors[0].id).point);
        assert!((d0 - res.neighbors[0].range.ub).abs() < 1e-9);
    }

    #[test]
    fn symmetric_pair_distance() {
        let mesh = TerrainConfig::bh().with_grid(9).build_mesh(13);
        let scene = SceneBuilder::new(&mesh).object_count(2).seed(1).build();
        let ch = ChEngine::new(&scene);
        let a = scene.object(0).point;
        let b = scene.object(1).point;
        let ab = ch.pair_distance(a, b);
        let ba = ch.pair_distance(b, a);
        assert!((ab - ba).abs() < 1e-6 * (1.0 + ab));
    }
}
