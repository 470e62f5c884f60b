//! Obstacle-constrained surface k-NN — the paper's stated next step (§6):
//! "an efficient sk-NN query with obstacle constraints, which can be found
//! in many real-life sk-NN applications, such as energy consumption and
//! vehicle stability considerations for rovers, and general traversability
//! constraints."
//!
//! An [`ObstacleMask`] marks facets as untraversable (too steep for the
//! vehicle, water, restricted areas). The constrained surface distance is
//! the shortest surface path avoiding those facets. The range-ranking
//! framework carries over with one twist in each direction:
//!
//! * **lower bounds stay valid unchanged**: the constrained distance is at
//!   least the unconstrained one, so the MSDN bound (and the Euclidean
//!   one) still bracket from below;
//! * **upper bounds must respect the mask**: DMTM fronts cannot (their
//!   recorded paths may cross obstacles), so upper bounds come from
//!   Dijkstra over an obstacle-filtered pathnet — every path in that graph
//!   stays on traversable facets by construction.
//!
//! Ranking then terminates with the usual `ub(p_k) <= lb(p_{k+1})` test.

use crate::bounds::DistRange;
use crate::ea::{charge_terrain, leaf_units};
use crate::metrics::{CpuTimer, Neighbor, QueryResult, QueryStats};
use crate::workload::{Scene, SurfacePoint};
use sknn_geodesic::graph::Dijkstra;
use sknn_geodesic::pathnet::Pathnet;
use sknn_multires::UnitStore;
use sknn_sdn::{Msdn, MsdnConfig, PagedMsdn};
use sknn_store::Pager;
use sknn_terrain::mesh::{TerrainMesh, TriId};

/// Per-facet traversability flags.
#[derive(Debug, Clone)]
pub struct ObstacleMask {
    blocked: Vec<bool>,
}

impl ObstacleMask {
    /// Everything traversable.
    pub fn none(mesh: &TerrainMesh) -> Self {
        Self { blocked: vec![false; mesh.num_triangles()] }
    }

    /// Block facets steeper than `max_slope` (rise over run) — the rover
    /// stability constraint from the paper's motivation.
    pub fn from_slope_limit(mesh: &TerrainMesh, max_slope: f64) -> Self {
        let blocked = (0..mesh.num_triangles() as TriId)
            .map(|t| {
                let n = mesh.triangle(t).normal().normalized();
                let horiz = (n.x * n.x + n.y * n.y).sqrt();
                let vert = n.z.abs().max(1e-12);
                horiz / vert > max_slope
            })
            .collect();
        Self { blocked }
    }

    /// Block facets whose projection intersects a rectangle (e.g. a lake or
    /// a restricted zone).
    pub fn from_region(mesh: &TerrainMesh, region: &sknn_geom::Rect2) -> Self {
        let blocked = (0..mesh.num_triangles() as TriId)
            .map(|t| mesh.triangle(t).mbr_xy().intersects(region))
            .collect();
        Self { blocked }
    }

    /// Combine two masks (blocked if blocked in either).
    pub fn union(&self, other: &ObstacleMask) -> ObstacleMask {
        ObstacleMask {
            blocked: self.blocked.iter().zip(&other.blocked).map(|(&a, &b)| a || b).collect(),
        }
    }

    /// Whether facet `t` is untraversable.
    pub fn is_blocked(&self, t: TriId) -> bool {
        self.blocked[t as usize]
    }

    /// Fraction of facets blocked.
    pub fn blocked_fraction(&self) -> f64 {
        if self.blocked.is_empty() {
            return 0.0;
        }
        self.blocked.iter().filter(|&&b| b).count() as f64 / self.blocked.len() as f64
    }
}

/// Obstacle-aware surface k-NN engine.
pub struct ConstrainedEngine<'s, 'm> {
    mesh: &'m TerrainMesh,
    scene: &'s Scene<'m>,
    mask: ObstacleMask,
    pathnet: Pathnet,
    /// Leaf-level terrain units for page accounting of pathnet regions.
    terrain: UnitStore,
    /// 100 % SDN for (unconstrained, hence still valid) lower bounds.
    msdn: PagedMsdn,
    pager: Pager,
}

impl<'s, 'm> ConstrainedEngine<'s, 'm> {
    /// Build the engine: obstacle-filtered pathnet + SDN + terrain store.
    pub fn build(mesh: &'m TerrainMesh, scene: &'s Scene<'m>, mask: ObstacleMask) -> Self {
        let pager = Pager::new(0);
        let terrain = leaf_units(&pager, mesh);
        let msdn_cfg = MsdnConfig { levels: vec![1.0], plane_spacing: None };
        let msdn = PagedMsdn::build(&pager, &Msdn::build(mesh, &msdn_cfg));
        let mask_ref = &mask;
        let filter = move |t: TriId| !mask_ref.is_blocked(t);
        let pathnet = Pathnet::build(mesh, 1, Some(&filter));
        Self { mesh, scene, mask, pathnet, terrain, msdn, pager }
    }

    /// The traversability mask in force.
    pub fn mask(&self) -> &ObstacleMask {
        &self.mask
    }

    /// Constrained surface distance upper bounds from `q` to every object,
    /// by one multi-source Dijkstra over the obstacle-filtered pathnet.
    /// `f64::INFINITY` marks unreachable objects (cut off by obstacles).
    fn constrained_dists(&self, q: SurfacePoint, stats: &mut QueryStats) -> Vec<f64> {
        // Page charge: the whole model's leaf units.
        charge_terrain(&self.pager, &self.terrain);
        if self.mask.is_blocked(q.tri) {
            return vec![f64::INFINITY; self.scene.num_objects()];
        }
        let src = self.pathnet.embedding(self.mesh, q.to_mesh_point());
        let d = Dijkstra::run_multi(self.pathnet.graph(), &src, None);
        stats.settled += d.settled;
        stats.absorb_queue(&d.queue);
        stats.ub_estimations += 1;
        self.scene
            .objects()
            .iter()
            .map(|o| {
                if self.mask.is_blocked(o.point.tri) {
                    return f64::INFINITY;
                }
                self.pathnet
                    .embedding(self.mesh, o.point.to_mesh_point())
                    .iter()
                    .map(|&(v, exit)| d.dist[v as usize] + exit)
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// Answer an obstacle-constrained surface k-NN query. Objects standing
    /// on blocked facets or unreachable around obstacles are never
    /// returned.
    pub fn query(&self, q: SurfacePoint, k: usize) -> QueryResult {
        let mut stats = QueryStats::default();
        self.pager.reset_stats();
        let timer = CpuTimer::start();

        let ubs = self.constrained_dists(q, &mut stats);
        stats.candidates = self.scene.num_objects();
        let mut order: Vec<(f64, u32)> = ubs
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_finite())
            .map(|(i, &d)| (d, i as u32))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        order.truncate(k);

        // Lower bounds for the winners: the unconstrained SDN bound is a
        // valid constrained bound too (obstacles only lengthen paths).
        let neighbors = order
            .into_iter()
            .map(|(ub, id)| {
                let p = self.scene.object(id).point;
                // A failed SDN read degrades to the Euclidean lower bound,
                // which remains valid under obstacles too.
                let sdn_lb = self
                    .msdn
                    .lower_bound(&self.pager, 0, q.pos, p.pos, None)
                    .map(|lb| lb.value)
                    .unwrap_or(0.0);
                let lb = sdn_lb.max(q.pos.dist(p.pos)).min(ub);
                stats.lb_estimations += 1;
                Neighbor { id, range: DistRange::new(lb, ub) }
            })
            .collect();

        timer.stop_into(&mut stats.cpu);
        stats.pages = self.pager.stats().physical_reads;
        QueryResult { neighbors, stats, trace: None, degraded: None, radius: 0.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SceneBuilder;
    use sknn_geom::{Point2, Rect2};
    use sknn_terrain::dem::TerrainConfig;

    fn flatish() -> TerrainMesh {
        TerrainConfig::ep().with_grid(17).build_mesh(808)
    }

    #[test]
    fn no_obstacles_matches_unconstrained_ordering() {
        let mesh = flatish();
        let scene = SceneBuilder::new(&mesh).object_count(15).seed(2).build();
        let engine = ConstrainedEngine::build(&mesh, &scene, ObstacleMask::none(&mesh));
        let q = scene.random_query(1);
        let res = engine.query(q, 4);
        assert_eq!(res.neighbors.len(), 4);
        // Without obstacles the pathnet distance is the usual approximate
        // surface distance; ranges must be ordered and bracketing.
        for w in res.neighbors.windows(2) {
            assert!(w[0].range.ub <= w[1].range.ub + 1e-9);
        }
        for n in &res.neighbors {
            assert!(n.range.lb <= n.range.ub + 1e-9);
            assert!(n.range.lb >= q.pos.dist(scene.object(n.id).point.pos) - 1e-6);
        }
    }

    #[test]
    fn wall_obstacle_forces_detour() {
        let mesh = flatish();
        let scene = SceneBuilder::new(&mesh).object_count(30).seed(5).build();
        let e = mesh.extent();
        // A wall across the middle with a gap at the top edge.
        let wall = Rect2::new(
            Point2::new(e.lo.x + e.width() * 0.48, e.lo.y),
            Point2::new(e.lo.x + e.width() * 0.52, e.lo.y + e.height() * 0.8),
        );
        let mask = ObstacleMask::from_region(&mesh, &wall);
        assert!(mask.blocked_fraction() > 0.0);
        let free = ConstrainedEngine::build(&mesh, &scene, ObstacleMask::none(&mesh));
        let walled = ConstrainedEngine::build(&mesh, &scene, mask);

        // A query on the left; compare distances to objects on the right.
        let q = scene
            .surface_point(Point2::new(e.lo.x + e.width() * 0.2, e.lo.y + e.height() * 0.3))
            .unwrap();
        let free_res = free.query(q, scene.num_objects());
        let wall_res = walled.query(q, scene.num_objects());
        let lookup = |res: &QueryResult, id: u32| {
            res.neighbors.iter().find(|n| n.id == id).map(|n| n.range.ub)
        };
        let mut detours = 0;
        for o in scene.objects() {
            if o.point.pos.x > e.lo.x + e.width() * 0.6 {
                let (Some(df), Some(dw)) = (lookup(&free_res, o.id), lookup(&wall_res, o.id))
                else {
                    continue; // object on the wall itself
                };
                assert!(dw >= df - 1e-6, "wall shortened a path");
                if dw > df * 1.05 {
                    detours += 1;
                }
            }
        }
        assert!(detours > 0, "the wall never forced a detour");
    }

    #[test]
    fn objects_on_obstacles_are_excluded() {
        let mesh = flatish();
        let scene = SceneBuilder::new(&mesh).object_count(20).seed(9).build();
        let e = mesh.extent();
        // Block the half of the terrain containing some objects.
        let half =
            Rect2::new(Point2::new(e.lo.x + e.width() * 0.5, e.lo.y), Point2::new(e.hi.x, e.hi.y));
        let mask = ObstacleMask::from_region(&mesh, &half);
        let engine = ConstrainedEngine::build(&mesh, &scene, mask);
        let q = scene
            .surface_point(Point2::new(e.lo.x + e.width() * 0.2, e.lo.y + e.height() * 0.5))
            .unwrap();
        let res = engine.query(q, scene.num_objects());
        for n in &res.neighbors {
            let o = scene.object(n.id);
            assert!(
                o.point.pos.x < e.lo.x + e.width() * 0.5 + mesh.mean_edge_length(),
                "object {} beyond the blocked half was returned",
                n.id
            );
        }
    }

    #[test]
    fn blocked_query_point_returns_nothing() {
        let mesh = flatish();
        let scene = SceneBuilder::new(&mesh).object_count(5).seed(1).build();
        let mask = ObstacleMask::from_region(&mesh, &mesh.extent());
        let engine = ConstrainedEngine::build(&mesh, &scene, mask);
        let q = scene.random_query(1);
        assert!(engine.query(q, 3).neighbors.is_empty());
    }

    #[test]
    fn slope_mask_blocks_steep_facets_only() {
        let mesh = TerrainConfig::bh().with_grid(17).build_mesh(6);
        let strict = ObstacleMask::from_slope_limit(&mesh, 0.2);
        let lax = ObstacleMask::from_slope_limit(&mesh, 5.0);
        assert!(strict.blocked_fraction() > lax.blocked_fraction());
        assert!(lax.blocked_fraction() < 0.1);
        // Union keeps every blocked facet.
        let u = strict.union(&lax);
        assert_eq!(u.blocked_fraction(), strict.blocked_fraction());
    }
}
