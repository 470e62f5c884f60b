//! Surface-distance clustering — the paper's headline application (§1):
//! "Surface distances are used for grouping fauna and flora location data,
//! and sk-NN queries are performed frequently for clustering new
//! sightings ... validating existing groupings once new location data
//! becomes available."
//!
//! [`surface_dbscan`] is density-based clustering (DBSCAN) whose
//! ε-neighbourhoods are **surface range queries**: two sightings cluster
//! together only when they are close *along the terrain*, so a herd split
//! by a canyon is two clusters even when the canyon is narrow in the air.
//! [`assign_sightings`] is the incremental workload: classify new points
//! against an existing clustering with surface 1-NN queries.

use crate::metrics::QueryStats;
use crate::mr3::Mr3Engine;
use crate::workload::SurfacePoint;

/// DBSCAN parameters: neighbourhood radius in surface metres and the core
/// density threshold (neighbours including the point itself).
#[derive(Debug, Clone, Copy)]
pub struct DbscanConfig {
    /// Neighbourhood radius (surface metres).
    pub eps: f64,
    /// Core-point density threshold.
    pub min_pts: usize,
}

/// A clustering of the engine's live objects.
#[derive(Debug, Clone)]
pub struct Clustering {
    /// Per object id: `Some(cluster id)`, or `None` for noise and for ids
    /// that were not live when the clustering ran.
    pub labels: Vec<Option<u32>>,
    /// The num clusters.
    pub num_clusters: u32,
    /// Live objects in the snapshot that was clustered.
    pub live: usize,
    /// Aggregate cost of all the surface range queries issued.
    pub stats: QueryStats,
}

impl Clustering {
    /// Object ids of one cluster.
    pub fn members(&self, cluster: u32) -> Vec<u32> {
        self.labels
            .iter()
            .enumerate()
            .filter_map(|(i, &l)| (l == Some(cluster)).then_some(i as u32))
            .collect()
    }

    /// Number of noise objects.
    pub fn noise_count(&self) -> usize {
        self.live - self.labels.iter().flatten().count()
    }
}

/// Density-based clustering of the engine's live objects by surface
/// distance. The object set is one pinned snapshot: objects deleted before
/// the call are not clustered, and the ε-neighbourhoods (each its own
/// range query) are restricted to that snapshot's ids, so a concurrent
/// insert cannot join a cluster half-way through.
pub fn surface_dbscan(engine: &Mr3Engine<'_, '_>, cfg: &DbscanConfig) -> Clustering {
    let objs = engine.objects().snapshot();
    let n = objs.id_bound() as usize;
    let mut labels: Vec<Option<u32>> = vec![None; n];
    let mut visited = vec![false; n];
    let mut stats = QueryStats::default();
    let mut next_cluster = 0u32;

    // ε-neighbourhood via a surface range query (includes the point).
    let neighbourhood = |id: u32, stats: &mut QueryStats| -> Vec<u32> {
        let mut r = engine.range_query(objs.point(id), cfg.eps);
        accumulate(stats, &r.stats);
        r.inside.retain(|&p| objs.get(p).is_some());
        r.inside
    };

    for start in objs.live_ids() {
        if visited[start as usize] {
            continue;
        }
        visited[start as usize] = true;
        let seeds = neighbourhood(start, &mut stats);
        if seeds.len() < cfg.min_pts {
            continue; // noise (may be claimed by a cluster later)
        }
        let cluster = next_cluster;
        next_cluster += 1;
        labels[start as usize] = Some(cluster);
        let mut frontier: Vec<u32> = seeds;
        while let Some(p) = frontier.pop() {
            if labels[p as usize].is_none() {
                labels[p as usize] = Some(cluster);
            }
            if visited[p as usize] {
                continue;
            }
            visited[p as usize] = true;
            let nbrs = neighbourhood(p, &mut stats);
            if nbrs.len() >= cfg.min_pts {
                for q in nbrs {
                    if !visited[q as usize] || labels[q as usize].is_none() {
                        frontier.push(q);
                    }
                }
            }
        }
    }
    Clustering { labels, num_clusters: next_cluster, live: objs.live(), stats }
}

/// Incremental sighting assignment: classify each new point by its surface
/// nearest neighbour's cluster, provided it lies within `eps` (otherwise
/// `None` — a potential new grouping). Returns one label per sighting.
///
/// Panics if a sighting's query exceeds its storage-fault budget.
pub fn assign_sightings(
    engine: &Mr3Engine<'_, '_>,
    clustering: &Clustering,
    sightings: &[SurfacePoint],
    eps: f64,
) -> Vec<Option<u32>> {
    sightings
        .iter()
        .map(|&s| {
            let res = engine.try_query(s, 1).expect("sknn query failed");
            match res.neighbors.first() {
                Some(n) if n.range.ub <= eps => {
                    clustering.labels.get(n.id as usize).copied().flatten()
                }
                _ => None,
            }
        })
        .collect()
}

fn accumulate(into: &mut QueryStats, from: &QueryStats) {
    into.pages += from.pages;
    into.iterations += from.iterations;
    into.candidates += from.candidates;
    into.settled += from.settled;
    into.queue_pushes += from.queue_pushes;
    into.queue_pops += from.queue_pops;
    into.stale_pops += from.stale_pops;
    into.ub_estimations += from.ub_estimations;
    into.lb_estimations += from.lb_estimations;
    into.dummy_lb_hits += from.dummy_lb_hits;
    into.lb_jobs_shared += from.lb_jobs_shared;
    into.whole_fronts += from.whole_fronts;
    into.shared_fronts += from.shared_fronts;
    into.derived_fronts += from.derived_fronts;
    into.cpu += from.cpu;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mr3Config;
    use crate::workload::SceneBuilder;
    use sknn_geom::Point2;
    use sknn_terrain::dem::TerrainConfig;
    use sknn_terrain::mesh::TerrainMesh;

    /// Two tight groups far apart on a mild terrain.
    fn two_groups(mesh: &TerrainMesh) -> Vec<Point2> {
        let mut pts = Vec::new();
        for i in 0..5 {
            let o = i as f64 * 4.0;
            pts.push(Point2::new(20.0 + o, 22.0 + o * 0.5));
            pts.push(Point2::new(130.0 + o, 128.0 + o * 0.5));
        }
        let _ = mesh;
        pts
    }

    #[test]
    fn separated_groups_form_two_clusters() {
        let mesh = TerrainConfig::ep().with_grid(17).build_mesh(77);
        let scene = SceneBuilder::new(&mesh).objects_at(two_groups(&mesh)).build();
        let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
        let c = surface_dbscan(&engine, &DbscanConfig { eps: 40.0, min_pts: 3 });
        assert_eq!(c.num_clusters, 2, "labels: {:?}", c.labels);
        assert_eq!(c.noise_count(), 0);
        // Every member of a group shares its label.
        let l0 = c.labels[0].unwrap();
        let l1 = c.labels[1].unwrap();
        assert_ne!(l0, l1);
        for i in 0..10usize {
            let expect = if i % 2 == 0 { l0 } else { l1 };
            assert_eq!(c.labels[i], Some(expect), "object {i}");
        }
        assert!(c.stats.pages > 0);
    }

    #[test]
    fn huge_eps_single_cluster_tiny_eps_all_noise() {
        let mesh = TerrainConfig::ep().with_grid(17).build_mesh(3);
        let scene = SceneBuilder::new(&mesh).object_count(12).seed(5).build();
        let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
        let all = surface_dbscan(&engine, &DbscanConfig { eps: 1e6, min_pts: 2 });
        assert_eq!(all.num_clusters, 1);
        assert_eq!(all.noise_count(), 0);
        let none = surface_dbscan(&engine, &DbscanConfig { eps: 1e-3, min_pts: 2 });
        assert_eq!(none.num_clusters, 0);
        assert_eq!(none.noise_count(), 12);
    }

    #[test]
    fn clusters_the_live_objects_not_the_genesis_scene() {
        let mesh = TerrainConfig::ep().with_grid(17).build_mesh(77);
        let scene = SceneBuilder::new(&mesh).objects_at(two_groups(&mesh)).build();
        let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
        // Remove the second group (odd ids) and add one member to the first.
        for id in [1u32, 3, 5, 7, 9] {
            assert!(engine.objects().delete(id).unwrap());
        }
        let extra = scene.surface_point(Point2::new(30.0, 30.0)).unwrap();
        let new_id = engine.objects().insert(extra).unwrap();
        let c = surface_dbscan(&engine, &DbscanConfig { eps: 40.0, min_pts: 3 });
        assert_eq!(c.num_clusters, 1, "labels: {:?}", c.labels);
        assert_eq!(c.noise_count(), 0);
        assert_eq!(c.members(0), vec![0, 2, 4, 6, 8, new_id]);
        // A sighting next to an object inserted after the clustering ran
        // is unaffiliated, not an index out of bounds.
        let far = scene.surface_point(Point2::new(135.0, 132.0)).unwrap();
        engine.objects().insert(far).unwrap();
        assert_eq!(assign_sightings(&engine, &c, &[far], 40.0), vec![None]);
    }

    #[test]
    fn isolated_point_is_noise() {
        let mesh = TerrainConfig::ep().with_grid(17).build_mesh(4);
        let mut pts = two_groups(&mesh);
        pts.push(Point2::new(80.0, 20.0)); // loner
        let scene = SceneBuilder::new(&mesh).objects_at(pts).build();
        let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
        let c = surface_dbscan(&engine, &DbscanConfig { eps: 40.0, min_pts: 3 });
        assert_eq!(c.labels[10], None, "loner was clustered");
        assert_eq!(c.num_clusters, 2);
    }

    #[test]
    fn sighting_assignment_follows_clusters() {
        let mesh = TerrainConfig::ep().with_grid(17).build_mesh(9);
        let scene = SceneBuilder::new(&mesh).objects_at(two_groups(&mesh)).build();
        let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
        let c = surface_dbscan(&engine, &DbscanConfig { eps: 40.0, min_pts: 3 });
        let near_a = scene.surface_point(Point2::new(25.0, 25.0)).unwrap();
        let near_b = scene.surface_point(Point2::new(135.0, 132.0)).unwrap();
        let far = scene.surface_point(Point2::new(80.0, 30.0)).unwrap();
        let labels = assign_sightings(&engine, &c, &[near_a, near_b, far], 40.0);
        assert_eq!(labels[0], c.labels[0]);
        assert_eq!(labels[1], c.labels[1]);
        assert_eq!(labels[2], None);
    }
}
