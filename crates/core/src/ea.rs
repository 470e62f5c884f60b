//! EA — the Enhanced Approximation benchmark algorithm (paper §5.2).
//!
//! "An alternative approach is to use the Kanai and Suzuki algorithm. This
//! method starts from the original surface model and continues to the
//! pathnet level for ub estimation. The 100 % resolution SDN is used here
//! for lb estimation. ... For fair comparison, the methods used for
//! finding the first global optimal shortest path and selective search
//! region refinement in the benchmark algorithm are the same as those used
//! by MR3. Moreover, ... the benchmark algorithm also applies the same
//! filter techniques as MR3." EA therefore runs the same four-step
//! pipeline but estimates every upper bound at *full* resolution
//! (Kanai–Suzuki with a 3 % error budget) — no coarse levels, no
//! progressive ranges. This is exactly what makes it an order of magnitude
//! slower: each candidate pays a full-resolution shortest-path search.

use crate::bounds::DistRange;
use crate::metrics::{CpuTimer, Neighbor, QueryResult, QueryStats};
use crate::workload::{Scene, SurfacePoint};
use sknn_geodesic::{kanai_suzuki, KanaiConfig};
use sknn_geom::Rect2;
use sknn_multires::{build_dmtm, PagedDmtm};
use sknn_sdn::{Msdn, MsdnConfig, PagedMsdn};
use sknn_store::Pager;
use sknn_terrain::mesh::TerrainMesh;

/// The EA benchmark engine.
pub struct EaEngine<'s, 'm> {
    mesh: &'m TerrainMesh,
    scene: &'s Scene<'m>,
    /// Leaf-level terrain pages (EA reads the original model).
    terrain_store: PagedDmtm,
    /// 100 % SDN only.
    msdn: PagedMsdn,
    pager: Pager,
    kanai: KanaiConfig,
    /// The cold cache.
    pub cold_cache: bool,
}

impl<'s, 'm> EaEngine<'s, 'm> {
    /// Build the benchmark engine (full-resolution structures only).
    pub fn build(mesh: &'m TerrainMesh, scene: &'s Scene<'m>, pool_pages: usize) -> Self {
        let pager = Pager::new(pool_pages);
        let terrain_store = PagedDmtm::build(&pager, build_dmtm(mesh));
        let msdn_cfg = MsdnConfig { levels: vec![1.0], plane_spacing: None };
        let msdn = PagedMsdn::build(&pager, &Msdn::build(mesh, &msdn_cfg));
        Self {
            mesh,
            scene,
            terrain_store,
            msdn,
            pager,
            // 3 % error budget: "we allow 3% error in shortest surface
            // calculation (i.e., ... terminates once it reaches 97%
            // accuracy)".
            kanai: KanaiConfig { tolerance: 0.03, ..KanaiConfig::default() },
            cold_cache: true,
        }
    }

    /// Pager.
    pub fn pager(&self) -> &Pager {
        &self.pager
    }

    /// Full-resolution upper bound via Kanai–Suzuki, charging the pages of
    /// the terrain region the search touches: the whole model for the
    /// initial global round, then the prune-ellipse region for refinement.
    fn kanai_ub(&self, q: SurfacePoint, p: SurfacePoint, stats: &mut QueryStats) -> f64 {
        let r = kanai_suzuki(self.mesh, q.to_mesh_point(), p.to_mesh_point(), &self.kanai);
        stats.settled += r.nodes_processed;
        stats.ub_estimations += 1;
        // Charge the refinement region reads (the global round is charged
        // once per query in `query`).
        if r.distance.is_finite() {
            let ell = sknn_geom::Ellipse2::new(q.pos.xy(), p.pos.xy(), r.distance);
            let region = ell.mbr().intersection(&self.mesh.extent());
            let _ = self.terrain_store.fetch_front(&self.pager, 0, Some(&region));
        }
        r.distance
    }

    fn sdn_lb(&self, q: SurfacePoint, p: SurfacePoint, roi: &Rect2, stats: &mut QueryStats) -> f64 {
        stats.lb_estimations += 1;
        // A failed SDN read degrades to the (valid) Euclidean lower bound.
        match self.msdn.lower_bound(&self.pager, 0, q.pos, p.pos, Some(roi)) {
            Ok(lb) => {
                stats.settled += lb.nodes_settled;
                stats.absorb_queue(&lb.queue);
                lb.value.max(q.pos.dist(p.pos))
            }
            Err(_) => q.pos.dist(p.pos),
        }
    }

    /// Answer a surface k-NN query at full resolution.
    pub fn query(&self, q: SurfacePoint, k: usize) -> QueryResult {
        let mut stats = QueryStats::default();
        if self.cold_cache {
            self.pager.clear_pool();
        }
        self.pager.reset_stats();
        self.scene.dxy().reset_accesses();
        let timer = CpuTimer::start();

        let k = k.min(self.scene.num_objects());
        let mut neighbors: Vec<Neighbor> = Vec::new();
        if k > 0 {
            // The first global-optimum search reads the whole model once.
            let _ = self.terrain_store.fetch_front(&self.pager, 0, None);

            // Step 1: 2D k-NN seeds.
            let seeds = self.scene.dxy().knn(q.pos.xy(), k);
            // Step 2: full-resolution upper bounds for the seeds.
            let mut radius = 0.0f64;
            let mut ubs: Vec<(u32, f64)> = Vec::with_capacity(k);
            for &(_, _, id) in &seeds {
                let ub = self.kanai_ub(q, self.scene.object(id).point, &mut stats);
                radius = radius.max(ub);
                ubs.push((id, ub));
            }
            stats.iterations = 1;

            // Step 3: planar range query.
            let in_range: Vec<u32> = if radius.is_finite() {
                self.scene
                    .dxy()
                    .within_distance(q.pos.xy(), radius)
                    .into_iter()
                    .map(|(_, id)| id)
                    .collect()
            } else {
                (0..self.scene.num_objects() as u32).collect()
            };
            stats.candidates = in_range.len();

            // Step 4: rank with lb prefilter, computing expensive ubs in
            // ascending Euclidean order so the k-th bound tightens early.
            let terrain = self.mesh.extent();
            let mut order: Vec<(f64, u32)> = in_range
                .iter()
                .map(|&id| (q.pos.dist(self.scene.object(id).point.pos), id))
                .collect();
            order.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let mut known: Vec<(u32, f64)> = Vec::new();
            for (euclid, id) in order {
                let kth = kth_smallest(&known, k);
                if known.len() >= k {
                    // Cheap filters first: the Euclidean bound, then the
                    // 100 % SDN bound within the prune ellipse.
                    if euclid > kth {
                        continue;
                    }
                    let p = self.scene.object(id).point;
                    let ell = sknn_geom::Ellipse2::new(q.pos.xy(), p.pos.xy(), kth);
                    let roi = ell.mbr().intersection(&terrain);
                    let lb = self.sdn_lb(q, p, &roi, &mut stats);
                    if lb > kth {
                        continue;
                    }
                }
                let ub = match ubs.iter().find(|&&(i, _)| i == id) {
                    Some(&(_, ub)) => ub,
                    None => self.kanai_ub(q, self.scene.object(id).point, &mut stats),
                };
                known.push((id, ub));
            }
            known.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
            neighbors = known
                .into_iter()
                .take(k)
                .map(|(id, ub)| Neighbor {
                    id,
                    // EA's range: 97 %-accurate ub.
                    range: DistRange::new(ub * (1.0 - self.kanai.tolerance), ub),
                })
                .collect();
        }

        timer.stop_into(&mut stats.cpu);
        stats.pages = self.pager.stats().physical_reads + self.scene.dxy().accesses();
        QueryResult { neighbors, stats, trace: None, degraded: None, radius: 0.0 }
    }
}

fn kth_smallest(known: &[(u32, f64)], k: usize) -> f64 {
    if known.len() < k {
        return f64::INFINITY;
    }
    let mut v: Vec<f64> = known.iter().map(|&(_, d)| d).collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[k - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ch::ChEngine;
    use crate::workload::SceneBuilder;
    use sknn_terrain::dem::TerrainConfig;

    #[test]
    fn ea_matches_ground_truth_within_tolerance() {
        let mesh = TerrainConfig::ep().with_grid(17).build_mesh(99);
        let scene = SceneBuilder::new(&mesh).object_count(20).seed(4).build();
        let ea = EaEngine::build(&mesh, &scene, 256);
        let exact = ChEngine::new(&scene);
        let q = scene.random_query(8);
        let k = 4;
        let got = ea.query(q, k);
        let truth = exact.query(q, k);
        assert_eq!(got.neighbors.len(), k);
        let kth = truth.neighbors.last().unwrap().range.ub;
        for n in &got.neighbors {
            let d = exact.pair_distance(q, scene.object(n.id).point);
            assert!(d <= kth * 1.07 + 1e-6, "object {} at {d} vs kth {kth}", n.id);
        }
    }

    #[test]
    fn ea_reads_many_pages() {
        let mesh = TerrainConfig::ep().with_grid(17).build_mesh(99);
        let scene = SceneBuilder::new(&mesh).object_count(15).seed(2).build();
        let ea = EaEngine::build(&mesh, &scene, 256);
        let res = ea.query(scene.random_query(1), 3);
        // EA touches the whole model at least once.
        assert!(res.stats.pages > 10, "pages {}", res.stats.pages);
        assert!(res.stats.ub_estimations >= 3);
    }

    #[test]
    fn k_zero_and_oversized() {
        let mesh = TerrainConfig::ep().with_grid(9).build_mesh(12);
        let scene = SceneBuilder::new(&mesh).object_count(3).seed(1).build();
        let ea = EaEngine::build(&mesh, &scene, 64);
        assert!(ea.query(scene.random_query(1), 0).neighbors.is_empty());
        assert_eq!(ea.query(scene.random_query(1), 9).neighbors.len(), 3);
    }
}
